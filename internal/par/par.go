// Package par is the process-wide, token-budgeted fan-out that the offline
// categorization and the retrain-window builder share.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tokens caps the helper goroutines alive across ALL concurrent Do calls at
// GOMAXPROCS: sharded simulations train (and retrain) one policy per shard
// concurrently, and each of those fans out in turn, so without a
// process-wide budget the helper count would multiply to shards x cores.
// The calling goroutine always works without a token, so progress never
// depends on token availability.
var tokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// Do runs fn(k) for every k in [0, items), fanning out over at most
// `workers` goroutines (the caller included); workers <= 0 means one per
// available core. Work is handed out by an atomic counter, so scheduling is
// nondeterministic — callers must make fn(k) write only to k-owned state,
// which keeps results bit-identical for every worker count. Helpers that
// cannot immediately draw a token are simply not spawned (the machine is
// busy; the caller still finishes the work itself).
func Do(workers, items int, fn func(k int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	var next atomic.Int64
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= items {
				return
			}
			fn(k)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-tokens }()
				work()
			}()
		default:
		}
	}
	work()
	wg.Wait()
}
