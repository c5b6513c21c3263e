//go:build goexperiment.synctest

package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/synctest"
)

// Phases run inside a testing/synctest bubble: every helper a phase
// starts has exited when the phase returns, so synctest.Run, which
// waits for every goroutine of its bubble, returns instead of reporting
// a deadlock. Covers RunCtx, RunErrCtx and ForChunksCtx, a panicking
// task and a cancelled context. Built only with the synctest
// experiment (the goexperiment.synctest tag), as CI's Synctest step does.
func TestSynctestPhases(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		synctest.Run(func() {
			p := New(workers, func(int) struct{} { return struct{}{} })
			var ran atomic.Int64
			if err := p.RunCtx(context.Background(), 50, func(struct{}, int) { ran.Add(1) }); err != nil || ran.Load() != 50 {
				t.Errorf("workers=%d: RunCtx = %v after %d of 50 tasks", workers, err, ran.Load())
			}
			errTask := errors.New("task failed")
			if err := p.RunErrCtx(context.Background(), 50, func(_ struct{}, task int) error {
				if task == 9 {
					return errTask
				}
				return nil
			}); !errors.Is(err, errTask) {
				t.Errorf("workers=%d: RunErrCtx = %v, want %v", workers, err, errTask)
			}
			sum := make([]int, 100)
			if err := ForChunksCtx(context.Background(), workers, len(sum), 8, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sum[i] = i
				}
			}); err != nil {
				t.Errorf("workers=%d: ForChunksCtx = %v", workers, err)
			}
			for i, v := range sum {
				if v != i {
					t.Errorf("workers=%d: ForChunksCtx left index %d at %d", workers, i, v)
					break
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("workers=%d: task panic did not reach the caller", workers)
					}
				}()
				p.Run(50, func(_ struct{}, task int) {
					if task == 5 {
						panic("boom")
					}
				})
			}()
			ctx, cancel := context.WithCancel(context.Background())
			err := p.RunCtx(ctx, 50, func(_ struct{}, task int) {
				if task == 3 {
					cancel()
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: cancelled RunCtx = %v", workers, err)
			}
		})
	}
}
