package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is what a number has to be read against: the machine, the
// toolchain and the code.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Flags      string `json:"flags"`
	// StreamGBps is the machine as this run found it: the fastest of a
	// few reads of a 32 MB buffer by the benchmark's own loop (the traced
	// run's mat.stream_gbps is the same loop over the document matrix's size).
	StreamGBps float64 `json:"stream_gbps"`
}

func stampEnvironment() environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Flags:      strings.Join(os.Args[1:], " "),
		StreamGBps: streamGBps(make([]float64, 4<<20), 20),
	}
}

// commit is HEAD when the checkout is a git repository; the driver's
// checkouts are not.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, model, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(model)
		}
	}
	return "unknown"
}
