// Command damaris-figures regenerates the paper's tables and figures from the
// simulated platforms, printing paper-reported values next to measured ones.
// (Measurements of the real middleware are `go run ./bench`.)
//
// Usage:
//
//	damaris-figures                  # run every experiment
//	damaris-figures -experiment fig2 # one experiment
//	damaris-figures -list            # list experiment IDs
//	damaris-figures -seed 7          # change the deterministic seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"damaris/internal/experiment"
)

func main() {
	var (
		id   = flag.String("experiment", "all", "experiment ID to run, or 'all'")
		seed = flag.Int64("seed", 42, "deterministic seed for all experiments")
		list = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiment.IDs(), "\n"))
		return
	}

	var tables []experiment.Table
	var err error
	if *id == "all" {
		tables, err = experiment.RunAll(*seed)
	} else {
		tables = make([]experiment.Table, 1)
		tables[0], err = experiment.Run(*id, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "damaris-figures:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}
