package exec

import "repro/internal/vm/des"

// Deterministic work stealing for DOALL loops.
//
// A worker that finishes its sweep does not retire immediately: it asks the
// most-behind live peer for half of that peer's un-started iteration range.
// The exchange runs over a shared steal board that is only ever read or
// written between simulator yields — the discrete-event scheduler
// serializes all threads, so board state is a pure function of the virtual
// clock and the seed, and runs with stealing enabled stay bit-for-bit
// reproducible (the same argument `sched.go` makes for guided claims).
//
// The protocol is asynchronous on the victim side and polled on the thief
// side, so a victim never blocks and a thief never waits on a queue that
// nobody will serve:
//
//   - The thief posts a request on the victim's board entry (at most one
//     outstanding request per victim) and sleep-polls its own grant slot.
//   - The victim answers at defined points only: at the top of each pass
//     (grant or deny), when its sweep ends (deny), and when it dies
//     permanently (deny). A transiently crashed victim keeps the request
//     pending; its checkpoint-restored replacement answers instead.
//   - A grant snapshots the victim's resumable state with the same
//     compressed-checkpoint machinery the crash layer uses (see ckframe.go):
//     the victim keeps [cur, split), the thief adopts [split, hi) plus the
//     frame needed to replay loop control from the victim's watermark. The
//     victim's own checkpoint is refreshed with the truncated range in the
//     same step, so a later crash can never salvage iterations the thief
//     now owns — each iteration is executed by exactly one adopter.
//
// Thieves poll between sweeps and consume no crash ticks (those fire only
// at pass tops), so a thief can never die with an outstanding request; the
// victim's answer is therefore always collected, and every worker chain
// still pushes exactly one join message at retirement.

// stealPoll is the thief's sleep quantum between polls of its grant slot.
const stealPoll = 200

// assignment is a half-open iteration-pass range [lo, hi) executed under
// the ownership identity src: the sweep runs the body only for iterations
// the iteration schedule assigns to worker src (and replays loop control
// privately for the rest, the standard DOALL codegen). hi < 0 means
// unbounded — run to the loop's control exit.
type assignment struct {
	src int
	lo  int64
	hi  int64 // exclusive; < 0 = unbounded
}

// stealGrant is the victim's answer to a steal request.
type stealGrant struct {
	denied bool
	asg    assignment // the range the thief now owns
	start  int64      // control-replay start: the victim's pass watermark
	cfr    *ckFrame   // victim frame snapshot at the steal point
}

// stealEntry is one worker's slot on the board.
type stealEntry struct {
	active  bool        // currently running a sweep (stealable unless dead)
	dead    bool        // permanently crashed; salvage owns the remainder
	asg     assignment  // current sweep's range
	cur     int64       // pass watermark, refreshed at each pass top
	reqFrom int         // worker id of the pending thief, -1 if none
	grant   *stealGrant // answer posted for THIS worker's own request

	// Pace accounting: virtual time spent in passes that ran an owned body,
	// published at each pass top. Control-only and replay passes are
	// excluded — they are orders of magnitude cheaper and would mask a
	// straggling body. avg = busy/passes is the worker's observed pace.
	passes int64
	busy   int64
}

// stealBoard is the shared per-loop steal state. All access happens between
// simulator yields, so no locking is needed and every transition is
// deterministic.
type stealBoard struct {
	entries  []stealEntry
	n        int64 // loop trip count once any sweep reaches control exit
	minSteal int64 // smallest range worth splitting, in passes
}

// newStealBoard sizes the board for one DOALL loop. minSteal is the
// smallest splittable range: two passes, the current one for the victim and
// at least one for the thief. Splits halve, so a straggler is stripped by
// successive steals down to the single pass it is executing. A minimal
// split can hand a thief a range that owns zero iterations under the
// static schedule — that wastes only the thief's idle time, while any
// larger floor strands whole iterations on a worker that runs them several
// times slower, which is the worse trade on the short loops of the suite.
func newStealBoard(threads int) *stealBoard {
	b := &stealBoard{
		entries:  make([]stealEntry, threads),
		n:        -1,
		minSteal: 2,
	}
	for w := range b.entries {
		b.entries[w] = stealEntry{
			active:  true,
			asg:     assignment{src: w, lo: 0, hi: -1},
			reqFrom: -1,
		}
	}
	return b
}

// close records the loop trip count the first time any sweep reaches the
// control exit (or the maxIters calibration cap). Every frame agrees on it
// — loop control is privatized and deterministic — so first-write wins.
func (b *stealBoard) close(n int64) {
	if b.n < 0 {
		b.n = n
	}
}

// effHi is the effective exclusive bound of a range: its own hi, capped by
// the trip count once known. Returns -1 only while both are unknown.
func (b *stealBoard) effHi(a assignment) int64 {
	hi := a.hi
	if b.n >= 0 && (hi < 0 || hi > b.n) {
		hi = b.n
	}
	return hi
}

// remaining is the un-started span of worker w's current sweep.
func (b *stealBoard) remaining(w int) int64 {
	e := &b.entries[w]
	hi := b.effHi(e.asg)
	if hi < 0 {
		return -1
	}
	return hi - e.cur
}

// retire marks worker w's sweep finished and denies any pending request —
// a thief must always get an answer from the entry it queued on.
func (b *stealBoard) retire(w int) {
	e := &b.entries[w]
	e.active = false
	if e.reqFrom >= 0 {
		b.entries[e.reqFrom].grant = &stealGrant{denied: true}
		e.reqFrom = -1
	}
}

// markDead records a permanent death. The remaining range belongs to the
// join-time salvage path, not to thieves.
func (b *stealBoard) markDead(w int) {
	e := &b.entries[w]
	e.dead = true
	e.active = false
	if e.reqFrom >= 0 {
		b.entries[e.reqFrom].grant = &stealGrant{denied: true}
		e.reqFrom = -1
	}
}

// pickVictim chooses the most-behind stealable peer of w: live, no request
// already queued, and at least minSteal passes un-started. Ties break to
// the lowest worker id, keeping the choice a pure function of board state.
func (b *stealBoard) pickVictim(w int) int {
	best, bestRem := -1, int64(0)
	for j := range b.entries {
		e := &b.entries[j]
		if j == w || !e.active || e.dead || e.reqFrom >= 0 {
			continue
		}
		rem := b.remaining(j)
		if rem >= b.minSteal && rem > bestRem {
			best, bestRem = j, rem
		}
	}
	return best
}

// avgPass is worker w's observed owned-body pass duration, 0 while
// unmeasured. Straggler surcharges land at the pass end, before the next
// pass-top publication, so a slowed worker's average reflects its true
// pace within one pass.
func (b *stealBoard) avgPass(w int) int64 {
	e := &b.entries[w]
	if e.passes == 0 {
		return 0
	}
	return e.busy / e.passes
}

// fastestPeer is the smallest measured pace among w's live peers, 0 while
// no peer has been measured.
func (b *stealBoard) fastestPeer(w int) int64 {
	best := int64(0)
	for j := range b.entries {
		if j == w || b.entries[j].dead {
			continue
		}
		if a := b.avgPass(j); a > 0 && (best == 0 || a < best) {
			best = a
		}
	}
	return best
}

// worthWaiting reports whether any live peer still holds a range big
// enough to split — if not, an idle thief retires instead of polling a
// board that can never feed it.
func (b *stealBoard) worthWaiting(w int) bool {
	for j := range b.entries {
		e := &b.entries[j]
		if j == w || !e.active || e.dead {
			continue
		}
		if rem := b.remaining(j); rem >= b.minSteal {
			return true
		}
	}
	return false
}

// serveSteal answers the pending request on the victim's entry at a pass
// top. A grant snapshots the victim's frame (compressed against the
// loop-entry reference), splits the un-started range in proportion to the
// victim's observed pace — a victim running k times slower than the
// fastest measured peer keeps ~1/(k+1) of the remainder, equal speeds
// halve — and, when the checkpoint layer is armed, refreshes the victim's
// own checkpoint with the truncated range, reusing the frame just encoded
// so the steal point is charged once.
func (m *machine) serveSteal(th *des.Thread, st *stepper, ws *doallState, board *stealBoard) {
	e := &board.entries[ws.w]
	thief := e.reqFrom
	e.reqFrom = -1
	hi := board.effHi(ws.asg)
	if m.failed() || hi < 0 || hi-ws.iter < board.minSteal {
		board.entries[thief].grant = &stealGrant{denied: true}
		return
	}
	rem := hi - ws.iter
	keep := (rem + 1) / 2
	if va, fp := board.avgPass(ws.w), board.fastestPeer(ws.w); va > 0 && fp > 0 && va > fp {
		keep = int64(float64(rem) * float64(fp) / float64(va+fp))
	}
	if keep < 1 {
		keep = 1 // the pass in flight always stays with the victim
	}
	split := ws.iter + keep
	cfr := encodeFrame(st.fr, m.ckRef)
	th.Charge(m.checkpointCost(cfr))
	board.entries[thief].grant = &stealGrant{
		asg:   assignment{src: ws.asg.src, lo: split, hi: hi},
		start: ws.iter,
		cfr:   cfr,
	}
	ws.asg.hi = split
	e.asg = ws.asg
	if m.checkpointing() {
		ws.ck = doallCkpt{
			asg: ws.asg, iter: ws.iter, cfr: cfr,
			lastIter: ws.lastIter,
			priv:     copyPriv(st.privCommits),
			done:     ws.done,
		}
		ws.ckEff = st.effects
		ws.ckWrites = st.it.HeapWrites
	}
}

// doallSteal is the thief side: poll for work after a finished sweep.
// Returns the adopted grant, or nil when the worker should retire (no
// stealable work left, or the run failed). The loop keeps at most one
// outstanding request and never abandons one — the victim's entry is
// guaranteed to answer (pass top, sweep end, or permanent death), and the
// board only changes between yields, so a request the thief withdraws
// after a failure cannot race a concurrent grant.
func (m *machine) doallSteal(th *des.Thread, ws *doallState, board *stealBoard) *stealGrant {
	if board == nil {
		return nil
	}
	// A worker measurably slower than twice its fastest peer retires
	// instead of stealing: a range it adopted would run at the straggler's
	// pace while faster peers idle — recreating the tail the board exists
	// to cut.
	if va, fp := board.avgPass(ws.w), board.fastestPeer(ws.w); va > 0 && fp > 0 && va > 2*fp {
		return nil
	}
	e := &board.entries[ws.w]
	pending := -1
	for !m.failed() {
		if g := e.grant; g != nil {
			e.grant = nil
			pending = -1
			if !g.denied {
				return g
			}
			continue // denied: re-scan for another victim before sleeping
		}
		if pending < 0 {
			if v := board.pickVictim(ws.w); v >= 0 {
				board.entries[v].reqFrom = ws.w
				pending = v
			} else if !board.worthWaiting(ws.w) {
				return nil
			}
		}
		th.Sleep(stealPoll)
	}
	if pending >= 0 && board.entries[pending].reqFrom == ws.w {
		board.entries[pending].reqFrom = -1
	}
	e.grant = nil
	return nil
}

// doallAdopt installs a granted range on the thief: restore the victim's
// frame from the compressed snapshot (charged by encoded size), rewind the
// pass watermark to the victim's steal point for the control replay, and —
// when the checkpoint layer is armed — take a fresh checkpoint so a thief
// crash recovers the stolen range, not the thief's old one. The thief's
// privatized shadow carries over untouched: it accumulates across every
// sweep of the chain and merges exactly once at retirement.
func (m *machine) doallAdopt(th *des.Thread, st *stepper, ws *doallState, board *stealBoard, g *stealGrant) {
	th.Charge(m.restoreCost(g.cfr))
	st.fr = g.cfr.decode()
	ws.asg = g.asg
	ws.iter = g.start
	ws.lastIter = -1
	ws.lastTop = -1 // idle poll time must not pollute the pace average
	ws.ranBody = false
	m.stats.steals++
	e := &board.entries[ws.w]
	e.asg = g.asg
	e.cur = g.start
	e.active = true
	if m.checkpointing() {
		m.takeDoallCkpt(th, st, ws)
	}
}

// straggleAt consumes one straggler tick for the role and returns the
// slowdown factor of the coming pass (1 = full speed). The hook is wired
// by fault campaigns (faults.Injector.SlowNow); unwired runs stay on the
// exact legacy timeline.
func (m *machine) straggleAt(role string) float64 {
	if m.cfg.Straggle == nil {
		return 1
	}
	return m.cfg.Straggle(role)
}

// straggleCharge stretches a pass that took `elapsed` virtual time by the
// straggler factor, charging the surplus at the pass end.
func straggleCharge(th *des.Thread, factor float64, elapsed int64) {
	if factor <= 1 || elapsed <= 0 {
		return
	}
	if extra := int64((factor - 1) * float64(elapsed)); extra > 0 {
		th.Charge(extra)
	}
}
