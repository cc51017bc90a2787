package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"contractshard/internal/crypto"
	"contractshard/internal/p2p"
	"contractshard/internal/types"
)

// maxDrainSlots bounds the traffic-free slots mined after the restart
// phase to confirm what is still pending.
const maxDrainSlots = 12

// blockInfo is what the audit keeps of a mined block: its link and the
// receipts it carries. Whole blocks are not kept, so the load loop holds no
// transactions between slots.
type blockInfo struct {
	parent types.Hash
	number uint64
	burns  []types.Hash // burns included
	mints  []types.Hash // burns whose mints are included
}

// counters are the public counters sampled at the edges of the measured
// window.
type counters struct {
	net              p2p.Stats
	verifyHits       uint64
	verifyMisses     uint64
	blocksOtherShard int
	txsOtherShard    int
	totalAlloc       uint64
	numGC            uint32
}

func (r *run) sample() counters {
	var c counters
	c.net = r.c.net.Stats()
	c.verifyHits, c.verifyMisses = crypto.DefaultVerifyCacheStats()
	for _, m := range r.c.live() {
		st := m.Stats()
		c.blocksOtherShard += st.BlocksOtherShard
		c.txsOtherShard += st.TxsOtherShard
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.numGC = ms.TotalAlloc, ms.NumGC
	return c
}

// run is one benchmark run: the cluster, its inputs and everything it
// measured.
type run struct {
	w    workload
	c    *cluster
	in   *inputs
	next int     // next unused batch of in
	tr   *tracer // nil in untraced runs

	slotStart []time.Time
	// pending maps each submitted, unconfirmed user transaction (for a
	// cross-shard transfer: its burn) to the slot that submitted it.
	pending map[types.Hash]int
	// burnSlot maps each included burn to the slot that mined it.
	burnSlot map[types.Hash]int
	blocks   []map[types.Hash]blockInfo // per shard

	attempted, confirmed int
	submitErrs           int
	emptyBlocks          int
	pendingPeak          int
	mintLags             []float64

	// Measured window.
	inWindow      bool
	windowSlots   int
	windowSecs    float64
	windowFrom    int64 // tracer clock at the window's edges
	windowTo      int64
	mined         int // blocks mined after set-up
	winSubmitted  int
	winConfirmed  int
	winBlocks     int
	confirmMs     []float64
	blockMs       []float64
	before, after counters
	heapLiveMB    float64
	exhausted     bool

	// Restart phase.
	recoverSecs   []float64
	catchupBlocks int
}

func newRun(w workload, c *cluster, in *inputs, tr *tracer) *run {
	r := &run{
		w: w, c: c, in: in, tr: tr,
		pending:  make(map[types.Hash]int),
		burnSlot: make(map[types.Hash]int),
	}
	for range c.layout.shards {
		r.blocks = append(r.blocks, make(map[types.Hash]blockInfo))
	}
	return r
}

// measure runs closed-loop slots until the duration has passed (or, with
// slots > 0, exactly that many slots). The window starts from a collected
// heap, so it does not inherit a collection the restart phase left half
// done, and the live heap is sampled there: after the fixed work of set-up
// and restart, so a program that gets through more slots in the window is
// not charged for the blocks it keeps.
func (r *run) measure(dur time.Duration, slots int) error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	r.inWindow = true
	r.before = r.sample()
	if r.tr != nil {
		r.windowFrom = r.tr.now()
	}
	start := time.Now()
	for (slots == 0 && time.Since(start) < dur) || r.windowSlots < slots {
		if r.next == r.in.slots() {
			r.exhausted = true
			break
		}
		if err := r.slot(r.nextBatch()); err != nil {
			return err
		}
		r.windowSlots++
	}
	r.windowSecs = time.Since(start).Seconds()
	if r.windowSlots == 0 {
		return errors.New("no slot was measured")
	}
	if r.tr != nil {
		r.windowTo = r.tr.now()
	}
	r.after = r.sample()
	r.inWindow = false
	return nil
}

func (r *run) nextBatch() []byte {
	b := r.in.batch(r.next)
	r.next++
	return b
}

// slot runs one closed-loop slot: decode the batch, submit every
// transaction, let each shard's producer mine, then let the relayers step.
// On the synchronous network every delivery and import happens inline, so
// when slot returns every running miner has imported every block.
func (r *run) slot(batch []byte) error {
	idx := len(r.slotStart)
	sp := r.tr.begin(spanSlot)
	defer r.tr.end(sp)
	r.slotStart = append(r.slotStart, time.Now())

	if batch != nil {
		d := r.tr.begin(spanDecode)
		txs, err := types.DecodeTransactions(batch)
		r.tr.endN(d, int64(len(txs)))
		if err != nil {
			return fmt.Errorf("decode slot %d: %w", idx, err)
		}
		live := r.c.live()
		for k, tx := range txs {
			r.attempted++
			if r.inWindow {
				r.winSubmitted++
			}
			s := r.tr.begin(spanSubmit)
			err := live[k%len(live)].SubmitTx(tx)
			r.tr.end(s)
			if err != nil {
				r.submitErrs++
				continue
			}
			r.pending[tx.Hash()] = idx
		}
	}
	for _, m := range r.c.live() {
		r.pendingPeak = max(r.pendingPeak, m.Pending())
	}

	for s := range r.c.layout.shards {
		m := r.c.producer(s, idx)
		sp := r.tr.begin(spanMine)
		t0 := time.Now()
		b, err := m.Mine()
		t1 := time.Now()
		r.tr.end(sp)
		r.mined++
		if err != nil {
			return fmt.Errorf("mine %s slot %d: %w", m.Shard(), idx, err)
		}
		if r.inWindow {
			r.winBlocks++
			r.blockMs = append(r.blockMs, ms(t1.Sub(t0)))
		}
		r.record(s, b, idx, t1)
	}
	if r.w.xshard {
		for s := range r.c.layout.shards {
			sp := r.tr.begin(spanRelay)
			_, err := r.c.relayer(s).RelayXShard()
			r.tr.end(sp)
			if err != nil {
				return fmt.Errorf("relay %s slot %d: %w", r.c.layout.shards[s], idx, err)
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// record books a freshly mined block: confirmations, burns and mints, and
// the link the audit walks.
func (r *run) record(shard int, b *types.Block, slot int, at time.Time) {
	info := blockInfo{parent: b.Header.ParentHash, number: b.Number()}
	if b.IsEmpty() {
		r.emptyBlocks++
	}
	for _, tx := range b.Txs {
		switch tx.Kind {
		case types.TxXShardBurn:
			h := tx.Hash()
			info.burns = append(info.burns, h)
			r.burnSlot[h] = slot
		case types.TxXShardMint:
			h := tx.Mint.Burn.Hash()
			info.mints = append(info.mints, h)
			if bs, ok := r.burnSlot[h]; ok {
				r.mintLags = append(r.mintLags, float64(slot-bs))
			}
			r.confirm(h, at)
		default:
			r.confirm(tx.Hash(), at)
		}
	}
	r.blocks[shard][b.Hash()] = info
}

func (r *run) confirm(h types.Hash, at time.Time) {
	slot, ok := r.pending[h]
	if !ok {
		return
	}
	delete(r.pending, h)
	r.confirmed++
	if r.inWindow {
		r.winConfirmed++
		r.confirmMs = append(r.confirmMs, ms(at.Sub(r.slotStart[slot])))
	}
}

// restartCycles is how many times the restart phase takes the second
// miner of every shard down and back up; recover_s is the median over every
// shard of every cycle.
const restartCycles = 3

// restart runs the restart cycles. It runs before the measured slots, so
// recovery always replays the same amount of work however fast the
// measured slots go, and the outage slots warm the cluster up.
func (r *run) restart() error {
	for i := 0; i < restartCycles; i++ {
		if err := r.restartCycle(); err != nil {
			return err
		}
	}
	return nil
}

// restartCycle closes the second miner of every shard, mines the outage
// slots with the rest, then reopens each closed miner from its file store
// and catches it up, timing each shard's recovery.
func (r *run) restartCycle() error {
	for _, row := range r.c.members {
		sp := r.tr.begin(spanClose)
		err := r.c.stop(row[1])
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("close %s: %w", row[1].id, err)
		}
	}
	for i := 0; i < r.w.outageSlots; i++ {
		if err := r.slot(r.nextBatch()); err != nil {
			return err
		}
	}
	for _, row := range r.c.members {
		start := time.Now()
		sp := r.tr.begin(spanReopen)
		err := r.c.open(row[1])
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		m, head := row[1].m, row[0].m.Head().Hash()
		for tries := 0; m.Head().Hash() != head; tries++ {
			if tries == 8 {
				return fmt.Errorf("%s did not catch up: height %d, shard height %d", row[1].id, m.Height(), row[0].m.Height())
			}
			sp := r.tr.begin(spanCatchUp)
			n, err := m.CatchUp()
			r.tr.endN(sp, int64(n))
			r.catchupBlocks += n
			if err != nil {
				return fmt.Errorf("catch up %s: %w", row[1].id, err)
			}
		}
		r.recoverSecs = append(r.recoverSecs, time.Since(start).Seconds())
	}
	return nil
}

// drain mines traffic-free slots until nothing is pending anywhere.
func (r *run) drain() error {
	for i := 0; i < maxDrainSlots && !r.idle(); i++ {
		if err := r.slot(nil); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) idle() bool {
	if len(r.pending) > 0 {
		return false
	}
	for _, m := range r.c.live() {
		if m.Pending() > 0 {
			return false
		}
	}
	return true
}

var errAudit = errors.New("audit failed")
