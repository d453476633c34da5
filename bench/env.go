package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// stamp says where and how a result was produced; it rides in every result
// so two numbers are only ever compared knowing their machines.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Filesystem string `json:"data_dir_filesystem"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Network    string `json:"network"`
}

func newStamp(fs string) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Filesystem: fs,
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Network:    "TCP over host loopback (127.0.0.1); no real link was crossed",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "unknown" where there is no
// repository (the acceptance driver's checkout has none).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
