package core_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/mpi"
)

// The minimal Damaris program, after the paper's §III-D Fortran example: on
// a 4-core node, 3 compute cores write a 3D array, raise an event and end the
// iteration; the dedicated core catalogs the pieces, runs the event's action
// (the built-in "stats") and persists the iteration as one DSF file, the
// action's product beside the data.
func ExampleDeploy() {
	cfg, err := config.ParseString(`
<simulation>
  <buffer size="16777216" allocator="mutex" cores="1"/>
  <layout name="my_layout" type="real" dimensions="64,16,2" language="fortran"/>
  <variable name="my_variable" layout="my_layout"/>
  <event name="my_event" action="stats" scope="global"/>
</simulation>`)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "damaris-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg.PersistBackend = "file://" + dir // where the dedicated core's DSF files go

	err = mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, err := core.Deploy(comm, cfg, nil, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if !dep.IsClient() {
			// The dedicated core: pulls events, catalogs datasets, runs
			// actions, persists iterations, all off the compute cores'
			// critical path.
			if err := dep.Server.Run(); err != nil {
				log.Fatal(err)
			}
			return
		}
		// A compute core: df_write, df_signal, end of iteration, finalize.
		cli := dep.Client
		data := make([]float32, 64*16*2)
		for i := range data {
			data[i] = float32(comm.Rank()*1000 + i)
		}
		for _, err := range []error{
			cli.Write("my_variable", 0, mpi.Float32sToBytes(data)),
			cli.Signal("my_event", 0),
			cli.EndIteration(0),
			cli.Finalize(),
		} {
			if err != nil {
				log.Fatal(err)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.dsf"))
	if err != nil {
		log.Fatal(err)
	}
	for _, path := range files {
		r, err := dsf.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(filepath.Base(path))
		for i, m := range r.Chunks() {
			fmt.Printf("  %s it=%d src=%d %v", m.Name, m.Iteration, m.Source, m.Layout)
			if m.Name == "stats:my_variable" {
				b, err := r.ReadChunk(i)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf(" min/max/mean=%v", mpi.BytesToFloat64s(b))
			}
			fmt.Println()
		}
		r.Close()
	}
	// Output:
	// node0000_srv0003_it000000.dsf
	//   my_variable it=0 src=0 real[2,16,64]
	//   my_variable it=0 src=1 real[2,16,64]
	//   my_variable it=0 src=2 real[2,16,64]
	//   stats:my_variable it=0 src=3 double[3] min/max/mean=[0 4047 2023.5]
}
