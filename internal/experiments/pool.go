package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// parallelism is the worker count runCells uses. 1 (the default) keeps the
// historical strictly-serial execution; anything higher fans independent
// cells out over a bounded pool. Atomic because experiment runners may
// themselves execute concurrently (the smoke tests run them in parallel).
var parallelism atomic.Int32

func init() { parallelism.Store(1) }

// SetParallelism sets the worker count for independent experiment cells.
// n <= 0 selects GOMAXPROCS. Determinism does not depend on the setting:
// every cell owns a private System/Timeline and writes only its own result
// slot, so reports are bit-identical at any worker count.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the current worker count.
func Parallelism() int { return int(parallelism.Load()) }

// runCells executes independent experiment cells — each a closure that
// stores its result into its own pre-assigned slot — on the configured
// worker pool. Cells must not share mutable state; each owns a private
// System/Timeline, which makes the fan-out race-free by construction.
// Result ordering is deterministic because slots are indexed, and the
// returned error is the lowest-indexed one so parallel runs fail the same
// way serial runs do.
func runCells(cells []func() error) error {
	w := Parallelism()
	if w > len(cells) {
		w = len(cells)
	}
	if w <= 1 {
		for _, cell := range cells {
			if err := cell(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(cells))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stop claiming new cells once any cell has failed. Claims are
			// monotonic in index, so the lowest-indexed erroring cell is
			// always already claimed when the flag trips — the error
			// returned matches serial execution exactly.
			for !failed.Load() {
				j := int(next.Add(1)) - 1
				if j >= len(cells) {
					return
				}
				if errs[j] = cells[j](); errs[j] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// policyRows runs one cell per policy and returns their rows in order, each
// led by the policy's label; a cell's error is reported under its policy.
func policyRows(policies []core.Policy, cell func(core.Policy) ([]any, error)) ([][]any, error) {
	rows := make([][]any, len(policies))
	cells := make([]func() error, len(policies))
	for i, policy := range policies {
		cells[i] = func() error {
			r, err := cell(policy)
			if err != nil {
				return fmt.Errorf("%v: %w", policy, err)
			}
			rows[i] = append([]any{policyLabel(policy)}, r...)
			return nil
		}
	}
	return rows, runCells(cells)
}
