package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envInfo records where and on what a result was measured.
type envInfo struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func environment() envInfo {
	e := envInfo{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Only trust git when the working directory is the top of its own
	// checkout; an unversioned copy nested in another repository must not
	// report that repository's commit.
	wd, _ := os.Getwd()
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil || filepath.Clean(strings.TrimSpace(string(top))) != filepath.Clean(wd) {
		return e
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
		e.Dirty = len(bytes.TrimSpace(out)) > 0
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB. It
// covers the whole benchmark process: the load generator as well as the
// node it drives.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSeconds is the user plus system CPU time this process has used: the
// node's and the load generator's together.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat.
type hostTicks struct{ total, iowait, steal float64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t hostTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 {
			t.total += v
		}
		switch i {
		case 4:
			t.iowait = v
		case 7:
			t.steal = v
		}
	}
	return t
}

// since returns the shares of CPU time spent waiting for I/O and stolen
// by the hypervisor between a and t: the host's own noise, recorded so a
// slow run can be told from a slow program.
func (t hostTicks) since(a hostTicks) (iowait, steal float64) {
	d := t.total - a.total
	if d <= 0 {
		return 0, 0
	}
	return (t.iowait - a.iowait) / d, (t.steal - a.steal) / d
}
