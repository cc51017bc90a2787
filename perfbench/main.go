// Command perfbench is the repository's end-to-end benchmark. One process
// builds a cluster of real node.Miners (four contract shards plus the
// MaxShard, two miners each, every miner on its own file store, all on one
// synchronous p2p network), drives it in a closed loop of slots with
// pre-signed traffic, audits the result and prints its metrics; the last
// line of standard output is a JSON object. See README.md.
//
//	perfbench --workload contract-bigstate --seed 1 --seconds 12 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"contractshard/internal/chainsync"
	"contractshard/internal/metrics"
	"contractshard/internal/node"
	"contractshard/internal/store"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	slots    int
	toy      bool
	workDir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: contract-bigstate, fresh-fullblock or xshard-ring")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured slots run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
	flag.IntVar(&o.slots, "slots", 0, "measure exactly this many slots instead of --seconds")
	flag.BoolVar(&o.toy, "toy", false, "shrink the workload to test scale")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/perfbench", "directory for miner stores, spans and results")
	flag.Parse()
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds <= 0 || o.slots < 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1, --seconds a positive number, --slots a count; no other arguments")
		os.Exit(2)
	}
	if err := run1(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run1(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.toy {
		w = w.toy()
	}

	// Inputs first, untimed: miner keys, user keys and every slot's signed
	// batch as wire bytes.
	l, err := newLayout(o.seed)
	if err != nil {
		return err
	}
	slots := o.slots
	if slots == 0 {
		slots = int(math.Ceil(o.seconds * w.maxSlotsPerSec))
	}
	in, err := generate(w, l, o.seed, slots+restartCycles*w.outageSlots)
	if err != nil {
		return err
	}
	defer in.free()

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	dataDir, err := os.MkdirTemp(o.workDir, "data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir) //shardlint:errdrop scratch stores; a leftover directory changes no result

	var tr *tracer
	var wrap func(store.Store) store.Store
	if o.trace {
		tr = newTracer()
		wrap = func(s store.Store) store.Store { return timedStore{Store: s, tr: tr} }
	}
	sp := tr.begin(spanSetup)
	c, setupTimes, err := setupClusters(w, l, dataDir, wrap)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer c.close() //shardlint:errdrop error paths only; the success path closes and checks below

	var prof bytes.Buffer
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	r := newRun(w, c, in, tr)
	err = r.restart()
	if err == nil {
		err = r.measure(time.Duration(o.seconds*float64(time.Second)), o.slots)
	}
	if err == nil {
		err = r.drain()
	}
	if o.trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	sp = tr.begin(spanAudit)
	bad := r.audit()
	tr.end(sp)
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "audit:", b)
		}
		return errAudit
	}

	res := result{Correct: true, Attempted: r.attempted, Failed: r.attempted - r.confirmed, Metrics: map[string]metric{}}
	e2e := r.endToEnd(setupTimes)
	fmt.Printf("workload %s seed %d: %d restart cycles of %d outage slots, %d catch-up blocks, %d measured slots in %.2fs\n",
		w.name, o.seed, restartCycles, w.outageSlots, r.catchupBlocks, r.windowSlots, r.windowSecs)
	fmt.Printf("attempted %d confirmed %d failed %d (submit errors %d) fail_ratio %.4f\n",
		r.attempted, r.confirmed, res.Failed, r.submitErrs, float64(res.Failed)/float64(r.attempted))
	fmt.Printf("fingerprint %s\n", r.fingerprint())
	counts, err := json.Marshal(r.exactCounts())
	if err != nil {
		return err
	}
	fmt.Printf("counts %s\n", counts)
	if r.exhausted {
		fmt.Fprintf(os.Stderr, "perfbench: inputs ran out after %d slots; raise maxSlotsPerSec for %s\n", r.windowSlots, w.name)
	}
	printMetrics("end to end", e2e)

	// Keyed by run length too: the overhead is only meaningful between runs
	// that cover the same slots.
	resultPath := filepath.Join(o.workDir, fmt.Sprintf("%s-seed%d-%gs-%dslots.tps", w.name, o.seed, o.seconds, o.slots))
	if !o.trace {
		res.Metrics = e2e
		// The traced run of the same workload and seed reads this to
		// report its overhead; a failure to write it changes no metric.
		_ = os.WriteFile(resultPath, []byte(strconv.FormatFloat(e2e["tps"].Value, 'g', -1, 64)), 0o644)
	} else {
		layers, err := r.perLayer(prof.Bytes())
		if err != nil {
			return err
		}
		res.Metrics = layers
		printMetrics("per layer", layers)
		wall := tr.now()
		fmt.Println("\nself time by span over the traced run:")
		printLayerTable(os.Stdout, layerTable(tr.spans, 0, wall))
		if raw, err := os.ReadFile(resultPath); err == nil {
			if base, err := strconv.ParseFloat(string(raw), 64); err == nil && base > 0 {
				fmt.Printf("tracing overhead: traced tps %.1f vs untraced %.1f (%+.1f%%)\n",
					e2e["tps"].Value, base, 100*(e2e["tps"].Value/base-1))
			}
		} else {
			fmt.Printf("tracing overhead: run --trace 0 with the same workload, seed and length first to compare\n")
		}
		spanPath := filepath.Join(o.workDir, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, o.seed))
		if err := writeSpans(spanPath, tr.spans); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", spanPath)
	}
	if err := c.close(); err != nil {
		return fmt.Errorf("close cluster: %w", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("\n%s:\n", title)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// per divides, reporting 0 for an empty base.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 0.5) }

// exactCounts are the run's counts that repeat exactly for a fixed seed
// and slot count: the determinism test compares them across processes.
func (r *run) exactCounts() map[string]int {
	net := r.c.net.Stats()
	hits, misses := r.after.verifyHits-r.before.verifyHits, r.after.verifyMisses-r.before.verifyMisses
	counts := map[string]int{
		"attempted": r.attempted, "confirmed": r.confirmed, "mined": r.mined,
		"empty_blocks": r.emptyBlocks, "pending_peak": r.pendingPeak, "catchup_blocks": r.catchupBlocks,
		"window_verify_hits": int(hits), "window_verify_misses": int(misses),
		"window_blocks_other_shard": r.after.blocksOtherShard - r.before.blocksOtherShard,
		"window_txs_other_shard":    r.after.txsOtherShard - r.before.txsOtherShard,
		"msgs":                      int(net.Total), "burns": len(r.burnSlot),
	}
	for topic, n := range net.ByTopic {
		counts["msgs "+topic] = int(n)
	}
	return counts
}

// endToEnd computes the metrics a user of the system sees.
func (r *run) endToEnd(setupTimes []float64) map[string]metric {
	return map[string]metric{
		"tps":            {per(float64(r.winConfirmed), r.windowSecs), "1/s"},
		"confirm_p50_ms": {metrics.Percentile(r.confirmMs, 0.50), "ms"},
		"confirm_p99_ms": {metrics.Percentile(r.confirmMs, 0.99), "ms"},
		"block_p50_ms":   {metrics.Percentile(r.blockMs, 0.50), "ms"},
		"block_p90_ms":   {metrics.Percentile(r.blockMs, 0.90), "ms"},
		"setup_s":        {median(setupTimes), "s"},
		"heap_live_mb":   {r.heapLiveMB, "MiB"},
		"msgs_per_tx":    {per(float64(r.after.net.Total-r.before.net.Total), float64(r.winConfirmed)), "msgs/tx"},
		"recover_s":      {median(r.recoverSecs), "s"},
	}
}

// perLayer computes the traced run's per-layer metrics: span times around
// the load loop's calls, CPU per mined block by layer, and exact counts.
func (r *run) perLayer(profile []byte) (map[string]metric, error) {
	sp := r.tr.spans
	from, to := r.windowFrom, r.windowTo
	out := map[string]metric{}
	usPer := func(total int64, n float64) float64 { return per(float64(total)/1e3, n) }
	msPer := func(total int64, n float64) float64 { return per(float64(total)/1e6, n) }

	_, t, txs := spanStats(sp, spanDecode, from, to)
	out["types.decode_us_per_tx"] = metric{usPer(t, float64(txs)), "us/tx"}
	n, t, _ := spanStats(sp, spanSubmit, from, to)
	out["node.submit_us_per_tx"] = metric{usPer(t, float64(n)), "us/tx"}
	n, t, _ = spanStats(sp, spanMine, from, to)
	out["node.mine_ms_per_block"] = metric{msPer(t, float64(n)), "ms/block"}
	_, t, _ = spanStats(sp, spanRelay, from, to)
	out["node.relay_ms_per_slot"] = metric{msPer(t, float64(r.windowSlots)), "ms/slot"}
	n, t, _ = spanStats(sp, spanReopen, 0, math.MaxInt64)
	out["node.reopen_ms"] = metric{msPer(t, float64(n)), "ms"}
	_, t, blocks := spanStats(sp, spanCatchUp, 0, math.MaxInt64)
	out["node.catchup_ms_per_block"] = metric{msPer(t, float64(blocks)), "ms/block"}
	appends, ta, ba := spanStats(sp, spanStoreAppend, from, to)
	_, tp, bp := spanStats(sp, spanStorePut, from, to)
	out["store.append_us_per_block"] = metric{usPer(ta, float64(appends)), "us/block"}
	out["store.put_ms_per_kblock"] = metric{msPer(tp, float64(appends)/1000), "ms/kblock"}
	out["store.bytes_per_block"] = metric{per(float64(ba+bp), float64(appends)), "B/block"}

	cpu, err := attributeCPU(profile)
	if err != nil {
		return nil, err
	}
	for _, layer := range cpuLayers {
		out["cpu."+layer] = metric{per(float64(cpu[layer])/1e6, float64(r.mined)), "ms/block"}
	}

	b, a := r.before, r.after
	sub, blk, slots := float64(r.winSubmitted), float64(r.winBlocks), float64(r.windowSlots)
	out["crypto.verify_misses_per_tx"] = metric{per(float64(a.verifyMisses-b.verifyMisses), sub), "1/tx"}
	out["crypto.verify_hits_per_tx"] = metric{per(float64(a.verifyHits-b.verifyHits), sub), "1/tx"}
	topic := func(name string) float64 { return float64(a.net.ByTopic[name] - b.net.ByTopic[name]) }
	out["p2p.tx_msgs_per_tx"] = metric{per(topic(node.TopicTxs), sub), "msgs/tx"}
	out["p2p.block_msgs_per_block"] = metric{per(topic(node.TopicBlocks), blk), "msgs/block"}
	out["p2p.xheader_msgs_per_slot"] = metric{per(topic(node.TopicXHeaders), slots), "msgs/slot"}
	out["p2p.sync_msgs"] = metric{float64(r.c.net.Stats().ByTopic[chainsync.ProtoRange]), "count"}
	out["node.blocks_other_shard_per_block"] = metric{per(float64(a.blocksOtherShard-b.blocksOtherShard), blk), "1/block"}
	out["node.txs_other_shard_per_tx"] = metric{per(float64(a.txsOtherShard-b.txsOtherShard), sub), "1/tx"}
	var dup, rejected, relayed int
	for _, row := range r.c.members {
		for _, mb := range row {
			st := mb.m.Stats()
			dup += st.BlocksDuplicate
			rejected += mb.rejected + st.BlocksRejected
			relayed += st.MintsRelayed
		}
	}
	out["node.blocks_duplicate"] = metric{float64(dup), "count"}
	out["node.blocks_rejected"] = metric{float64(rejected), "count"}
	out["mempool.pending_peak"] = metric{float64(r.pendingPeak), "count"}
	out["xshard.mints_relayed_per_burn"] = metric{per(float64(relayed), float64(len(r.burnSlot))), "1/burn"}
	out["xshard.mint_lag_slots"] = metric{metrics.Mean(r.mintLags), "slots"}
	out["chain.empty_blocks"] = metric{float64(r.emptyBlocks), "count"}
	out["mem.alloc_kb_per_tx"] = metric{per(float64(a.totalAlloc-b.totalAlloc)/1024, float64(r.winConfirmed)), "KB/tx"}
	out["mem.gc_cycles"] = metric{float64(a.numGC - b.numGC), "count"}
	out["trace.tps"] = metric{per(float64(r.winConfirmed), r.windowSecs), "1/s"}
	return out, nil
}
