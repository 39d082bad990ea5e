package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tinySeconds is the measuring time of a test run: every workload still
// completes one unit of work at tiny size.
const tinySeconds = 0.05

// tinyRun measures one workload at tiny size and returns its record.
func tinyRun(t *testing.T, w bench, traced bool) *record {
	t.Helper()
	rec, _, err := measure(w, tinySeconds, traced, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// lastLine parses the result object printResult writes last.
func lastLine(t *testing.T, rec *record) (correct bool, attempted, failed int, metrics map[string]metric) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return out.Correct, out.Attempted, out.Failed, out.Metrics
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	for name, mk := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			correct, attempted, failed, metrics := lastLine(t, tinyRun(t, mk(1, tinySize), traced))
			if !correct || failed != 0 || attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, correct, attempted, failed)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

func TestSeedChangesInputsButNotMetricNames(t *testing.T) {
	names := func(rec *record) string {
		var ns []string
		for n, m := range rec.Metrics {
			ns = append(ns, n+"/"+m.Unit)
		}
		sort.Strings(ns)
		return strings.Join(ns, ",")
	}
	for name, mk := range workloads {
		a, b := tinyRun(t, mk(1, tinySize), false), tinyRun(t, mk(2, tinySize), false)
		if a.Inputs == b.Inputs {
			t.Errorf("%s: seeds 1 and 2 made the same inputs %q", name, a.Inputs)
		}
		if names(a) != names(b) {
			t.Errorf("%s: metric names differ between seeds:\n%s\n%s", name, names(a), names(b))
		}
		if again := tinyRun(t, mk(1, tinySize), false); again.Inputs != a.Inputs {
			t.Errorf("%s: seed 1 made inputs %q, then %q", name, a.Inputs, again.Inputs)
		}
	}
}

func TestPlantedWrongAnswerRaisesFailFrac(t *testing.T) {
	planted := map[string]bench{}
	live := newSweepLive(1, tinySize).(*sweepLive)
	live.plant = true
	planted["sweep-live"] = live
	offline := newSweepOffline(1, tinySize).(*sweepOffline)
	offline.plant = true
	planted["sweep-offline"] = offline
	exec := newExec(1, tinySize).(*execN32)
	exec.plant = true
	planted["exec-n32"] = exec
	if len(planted) != len(workloads) {
		t.Fatalf("planted %d workloads, the benchmark has %d", len(planted), len(workloads))
	}
	for name, w := range planted {
		rec := tinyRun(t, w, false)
		correct, _, failed, _ := lastLine(t, rec)
		if correct || failed == 0 || rec.FailFrac <= 0 {
			t.Errorf("%s: planted wrong answer passed: correct=%v failed=%d fail_frac=%v", name, correct, failed, rec.FailFrac)
		}
	}
}

func TestCompareWarnsAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec record) string {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := hostInfo("a")
	m := map[string]metric{"ops_per_s": {Value: 10, Unit: "1/s"}}
	old := write("old.json", record{Workload: "exec-n32", Host: h, Metrics: m})
	same := write("same.json", record{Workload: "exec-n32", Host: h, Metrics: m})
	other := h
	other.CPUModel += " (other)"
	moved := write("moved.json", record{Workload: "exec-n32", Host: other, Metrics: m})

	var buf bytes.Buffer
	if err := compareRecords(&buf, old, same); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "WARNING") {
		t.Errorf("same host warned:\n%s", buf.String())
	}
	buf.Reset()
	if err := compareRecords(&buf, old, moved); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "different hosts") || !strings.Contains(buf.String(), "cpu_model") {
		t.Errorf("different CPU model did not warn:\n%s", buf.String())
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{id: 1, parent: -1, name: "live.replay", start: 0, end: 100},
		{id: 2, parent: 1, name: "live.decide", start: 10, end: 30},
		{id: 3, parent: 1, name: "bounds.stamp", start: 40, end: 70},
	}
	self := selfByLayer(spans)
	if self["live"] != 70 || self["bounds"] != 30 {
		t.Errorf("self times %v, want live 70 (100-30 + 20-0) and bounds 30", self)
	}
}
