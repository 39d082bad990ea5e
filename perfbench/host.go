package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// host identifies the machine and code a result was measured on.
type host struct {
	Hostname   string `json:"hostname"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func hostInfo(commit string) host {
	name, _ := os.Hostname() // an unknown hostname is recorded as ""
	return host{
		Hostname:   name,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     commit,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostDiffs lists the host fields on which two results differ; commits are
// expected to differ and are not compared.
func hostDiffs(a, b host) []string {
	var d []string
	add := func(field string, x, y any) {
		if x != y {
			d = append(d, fmt.Sprintf("%s: %v vs %v", field, x, y))
		}
	}
	add("hostname", a.Hostname, b.Hostname)
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("num_cpu", a.NumCPU, b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("os/arch", a.OS+"/"+a.Arch, b.OS+"/"+b.Arch)
	return d
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareRecords prints, per metric of two result records, both values and
// the relative change, after a warning when the records come from different
// hosts or workloads.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if d := hostDiffs(a.Host, b.Host); len(d) > 0 {
		fmt.Fprintf(w, "WARNING: the results come from different hosts (%s); compare only runs of one host\n", strings.Join(d, "; "))
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(w, "WARNING: comparing %s (trace %d) with %s (trace %d)\n", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Fprintf(w, "%s: commit %s -> %s, seed %d -> %d\n", b.Workload, a.Host.Commit, b.Host.Commit, a.Seed, b.Seed)
	names := make([]string, 0, len(b.Metrics))
	for n := range b.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		nv := b.Metrics[n]
		ov, ok := a.Metrics[n]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-28s %14s %14.6g %-8s new\n", n, "-", nv.Value, nv.Unit)
		case ov.Value == 0:
			fmt.Fprintf(w, "  %-28s %14.6g %14.6g %-8s\n", n, ov.Value, nv.Value, nv.Unit)
		default:
			fmt.Fprintf(w, "  %-28s %14.6g %14.6g %-8s %+7.1f%%\n", n, ov.Value, nv.Value, nv.Unit, 100*(nv.Value-ov.Value)/ov.Value)
		}
	}
	return nil
}
