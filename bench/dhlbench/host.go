package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host is the machine and build a result was measured on.
type host struct {
	Hostname string `json:"hostname"`
	CPU      string `json:"cpu"`
	NumCPU   int    `json:"nproc"`
	Go       string `json:"go"`
	Platform string `json:"platform"`
	Commit   string `json:"commit"`
}

func hostInfo() host {
	name, err := os.Hostname()
	if err != nil {
		name = "unknown"
	}
	return host{
		Hostname: name,
		CPU:      cpuModel(),
		NumCPU:   runtime.NumCPU(),
		Go:       runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Commit:   commit(),
	}
}

// cpuModel is the first "model name" in /proc/cpuinfo, else the
// architecture.
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

// commit is the git revision the go command stamped into the binary (the
// value of git rev-parse HEAD when built inside a checkout), with
// "-dirty" for uncommitted changes, or "unknown" when built outside git.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
