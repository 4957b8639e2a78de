package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Worker wake-up tuning. A state-dependent policy barriers at every
// arrival, so a fleet run is thousands of job publications; a blocking
// channel wake costs a futex round-trip (microseconds) per worker per
// barrier, which would rival the simulation work between barriers.
// Workers therefore spin briefly on the round counter before parking:
// spinRounds bounds the spin, and every spinYield iterations the
// worker yields its OS thread so a spinning worker never starves the
// driver's serial routing section. On a single-proc machine spinning
// can only steal time from the driver, so it is disabled.
const (
	spinRounds = 1024
	spinYield  = 64
)

// shardPool advances a fleet's instance engines across OS cores. The
// pool holds persistent worker goroutines; each barrier round the
// driver publishes a job, bumps the round counter, and blocks until
// all workers finish. Workers claim instances with an atomic cursor —
// work stealing, so one slow engine doesn't idle the other workers
// behind a static partition.
//
// Synchronization per round: the job fields are written before the
// round bump (publish → observe, plus the channel send for parked
// workers), and every engine mutation happens before the worker's
// wg.Done (Done → Wait). Between rounds only the driver touches the
// instances, so no engine is ever driven by two goroutines at once —
// the pool moves engines between OS threads, which Engine documents
// as safe when the caller orders the calls.
type shardPool struct {
	insts []*instance

	// Job for the current round, written by the driver before the
	// round bump. Exactly one of the two modes is active: batches ==
	// nil advances every engine to deadline; otherwise each instance
	// runs its own pre-routed arrival batch through runBatch.
	deadline sim.Time
	batches  [][]arrival
	window   sim.Time
	last     sim.Time

	cursor atomic.Int64  // next instance index to claim this round
	round  atomic.Uint32 // job publication counter

	// Parking: a worker that exhausts its spin budget raises its
	// parked flag and blocks on its channel; the driver wakes exactly
	// the workers whose flags it observes raised. The flag store and
	// the round load are both sequentially consistent, so either the
	// driver sees the flag (and sends) or the worker's post-flag
	// round recheck sees the new round — never neither.
	parked []atomic.Bool
	start  []chan struct{} // one per worker: wake after parking
	spin   int             // per-worker spin budget before parking

	wg sync.WaitGroup // round completion

	// The first panic a worker recovered this round; run re-raises it
	// on the driver goroutine, where the fleet's caller can contain it.
	panicMu  sync.Mutex
	panicked any
}

// newShardPool starts shards persistent workers over insts. The caller
// has already clamped shards to [2, len(insts)].
func newShardPool(insts []*instance, shards int) *shardPool {
	p := &shardPool{
		insts:  insts,
		parked: make([]atomic.Bool, shards),
		start:  make([]chan struct{}, shards),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		p.spin = spinRounds
	}
	for w := range p.start {
		p.start[w] = make(chan struct{}, 1)
		go p.worker(w)
	}
	return p
}

func (p *shardPool) worker(w int) {
	var seen uint32
	for {
		// Fast path: the driver published a new round since we last
		// worked. The seq-cst round load orders after the driver's job
		// writes (they happen before its round bump).
		if r := p.round.Load(); r != seen {
			seen = r
			p.work()
			continue
		}
		spun := 0
		for ; spun < p.spin; spun++ {
			if p.round.Load() != seen {
				break
			}
			if spun%spinYield == spinYield-1 {
				runtime.Gosched()
			}
		}
		if spun < p.spin {
			continue
		}
		// Park. Recheck after raising the flag: a round published
		// between our last load and the flag store would otherwise
		// strand the driver (it saw the flag down and skipped the
		// send).
		p.parked[w].Store(true)
		if p.round.Load() != seen {
			p.parked[w].Store(false)
			continue
		}
		if _, ok := <-p.start[w]; !ok {
			return
		}
		p.parked[w].Store(false)
		// The token may be stale (we cleared a previous park via the
		// recheck path after the driver had already sent); looping
		// re-reads the round and either works or re-parks.
	}
}

// work claims and runs instances until the round's cursor is drained.
func (p *shardPool) work() {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicked == nil {
				p.panicked = r
			}
			p.panicMu.Unlock()
		}
	}()
	for {
		i := int(p.cursor.Add(1)) - 1
		if i >= len(p.insts) {
			break
		}
		in := p.insts[i]
		if p.batches == nil {
			in.env.Engine().RunUntil(p.deadline)
		} else {
			runBatch(in, p.batches[i], p.window, p.last)
		}
	}
}

// run executes one published job to completion across all workers.
func (p *shardPool) run() {
	p.cursor.Store(0)
	p.wg.Add(len(p.start))
	p.round.Add(1)
	for w := range p.start {
		if p.parked[w].Load() {
			select {
			case p.start[w] <- struct{}{}:
			default: // a stale token is already waiting; it will wake them
			}
		}
	}
	p.wg.Wait()
	if r := p.panicked; r != nil {
		p.panicked = nil
		panic(r)
	}
}

// advance moves every instance engine to deadline concurrently.
func (p *shardPool) advance(deadline sim.Time) {
	p.deadline = deadline
	p.batches = nil
	p.run()
}

// runBatches runs every instance's pre-routed arrival batch — submits,
// self-paced window closes, and the final advance to the last window
// boundary at or before last — behind a single barrier.
func (p *shardPool) runBatches(batches [][]arrival, window, last sim.Time) {
	p.batches = batches
	p.window = window
	p.last = last
	p.run()
	p.batches = nil
}

// close shuts the workers down. The pool must be idle (no round in
// flight); spinning workers drain their budget, park, and exit on the
// closed channel.
func (p *shardPool) close() {
	for _, c := range p.start {
		close(c)
	}
}

// runBatch replays one instance's slice of the arrival timeline,
// reproducing exactly the schedule the serial lockstep driver gives
// that instance: every window boundary at or before an arrival closes
// (with the engine advanced to the boundary first) before the arrival
// is submitted at its own timestamp, and after the last owned arrival
// the engine still closes every boundary up to the fleet-wide last
// arrival time, because the serial driver closes windows on all
// instances whichever one an arrival targets. Advances to other
// instances' arrival times are skipped: this engine has no events
// there (its next activity is bounded by its own arrivals and window
// boundaries), so those advances were pure clock bumps — unobservable.
func runBatch(in *instance, batch []arrival, window, last sim.Time) {
	eng := in.env.Engine()
	next := window
	for _, a := range batch {
		for next <= a.at {
			eng.RunUntil(next)
			in.closeWindow()
			next += window
		}
		eng.RunUntil(a.at)
		in.srv.Submit(a.key)
	}
	for next <= last {
		eng.RunUntil(next)
		in.closeWindow()
		next += window
	}
	// Land exactly where the serial driver leaves every engine: at the
	// fleet-wide last arrival time with all events up to it executed.
	// Without this, events in (final boundary, last] would execute
	// after Server.Close instead of before — same results, but a
	// different idle-wake event count, and the determinism contract is
	// engine-state-exact, not merely results-exact.
	eng.RunUntil(last)
}
