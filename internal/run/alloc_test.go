package run_test

import (
	"runtime"
	"slices"
	"testing"

	"github.com/clockless/zigzag/internal/bench"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// absorbBudgetMB bounds the bytes allocated by absorbing every receive
// batch of the n=32 scaling run into fresh views. Measured at 4.2 MB
// (linux/amd64, go1.24, also under -race): each batch is stored once, in
// its receiver's timeline, and a merge copies no history. The budget adds
// half again. A per-view copy of every delivery (the delivery logs the
// shared timelines replaced) took the same batches to 321 MB, so it cannot
// come back unnoticed.
const absorbBudgetMB = 6

// TestAbsorbByteBudget is the allocation guard of the view: every
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
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	for _, p := range in.Net.Procs() {
		got, want := views[p-1], captured[p]
		if !got.PastSet().Equal(want.PastSet()) || !slices.Equal(got.Deliveries(), want.Deliveries()) {
			t.Fatalf("p%d: re-absorbed view differs from the captured one", p)
		}
	}
	t.Logf("absorbed %d batches: %.1f MB allocated (budget %d MB)", len(batches), mb, absorbBudgetMB)
	if mb > absorbBudgetMB {
		t.Errorf("absorbing the n=32 batches allocated %.1f MB, budget %d MB", mb, absorbBudgetMB)
	}
}
