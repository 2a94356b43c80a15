package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stealThreshold is the share of CPU time the hypervisor may take from a
// segment before its timings are called disturbed: on the 2-vCPU sandbox a
// quiet run stays below 2 %, and at 40–55 % the same binary is 3–4× slower
// (see README, sizing facts).
const stealThreshold = 0.10

// cpuTimes is one reading of the aggregate "cpu" line of /proc/stat, in
// jiffies.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes returns a zero reading where /proc/stat is missing (non-Linux
// hosts): steal then reads 0 and no segment is ever flagged.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// Columns 9 and 10 (guest, guest_nice) are already counted in user
		// and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the fraction of all CPU time between two readings that the
// hypervisor gave to someone else.
func stealShare(from, to cpuTimes) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// processCPU is user+system CPU time the process has consumed so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSample is the part of runtime.MemStats the benchmark reports.
type memSample struct {
	totalAlloc, mallocs, heapSys uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, heapSys: m.HeapSys - m.HeapReleased}
}

// dataRoot picks where segments write. The sandbox's disk varies fsync
// latency 20× between runs, so memory-backed storage is preferred and the
// slow device is modelled (see paced_small_jitter); the fallback stays
// inside the working directory and is reported as "disk".
func dataRoot(override string) (dir, device string, err error) {
	if override != "" {
		return override, "given", nil
	}
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "damaris-bench-"); err == nil {
			return dir, "tmpfs", nil
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(".bench_build", "run-")
	return dir, "disk", err
}
