package run_test

import (
	"runtime"
	"testing"

	"github.com/clockless/zigzag/internal/bench"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// absorbBudgetMB bounds the bytes allocated by absorbing every receive
// batch of the n=32 scaling run into fresh views. Measured at 321 MB
// (linux/amd64, go1.24), almost all of it the views' append-only logs; the
// budget adds a quarter. The per-delivery index map the dense index
// replaced brought the same batches to 501 MB, so it cannot come back
// unnoticed.
const absorbBudgetMB = 400

// TestAbsorbByteBudget is the allocation guard of the dense view: every
// process's batches of the n=32 scaling workload (the shape
// bench.ReplayBatches records, payloads shared with the capture-time
// evolution) are absorbed into fresh views, and the bytes allocated must
// stay within absorbBudgetMB.
func TestAbsorbByteBudget(t *testing.T) {
	cfg := workload.DefaultConfig(32)
	cfg.Procs = 32
	cfg.ExtraChannels = 64
	in := workload.MustGenerate(cfg)
	r := sim.MustSimulate(sim.Config{
		Net: in.Net, Horizon: in.Horizon, Policy: sim.NewRandom(1), Externals: in.Externals,
	})
	observed := make(map[model.ProcID]bool, in.Net.N())
	for _, p := range in.Net.Procs() {
		observed[p] = true
	}
	batches, captured := bench.ReplayBatches(r, observed)

	views := make([]*run.View, in.Net.N())
	for _, p := range in.Net.Procs() {
		views[p-1] = run.NewLocalView(in.Net, p)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches {
		if _, err := views[b.Proc-1].Absorb(b.Receipts, b.Externals); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for _, p := range in.Net.Procs() {
		if got, want := views[p-1].Fingerprint(), captured[p].Fingerprint(); got != want {
			t.Fatalf("p%d: re-absorbed fingerprint %#x, captured %#x", p, got, want)
		}
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("absorbed %d batches: %.1f MB allocated (budget %d MB)", len(batches), mb, absorbBudgetMB)
	if mb > absorbBudgetMB {
		t.Errorf("absorbing the n=32 batches allocated %.1f MB, budget %d MB", mb, absorbBudgetMB)
	}
}
