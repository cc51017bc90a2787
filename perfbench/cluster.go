package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"contractshard/internal/chain"
	"contractshard/internal/chainsync"
	"contractshard/internal/node"
	"contractshard/internal/p2p"
	"contractshard/internal/store"
	"contractshard/internal/types"
)

// The durable miner configuration `cmd/shardnode -datadir` deploys.
const (
	difficulty     = 16
	stateHistory   = 32
	finalityDepth  = 64
	xshardFinality = 1
)

// Set-up repetitions: at least minSetupReps builds, more while the builds
// so far took less than minSetupSecs in total, at most maxSetupReps.
const (
	minSetupReps = 5
	maxSetupReps = 60
	minSetupSecs = 2.0
)

// member is one miner slot of the cluster: the running miner, or nil
// while it is closed for the restart phase.
type member struct {
	id  p2p.NodeID
	cfg node.Config
	dir string
	m   *node.Miner
	// rejected carries BlocksRejected of earlier incarnations across a
	// reopen, so the audit sees every rejection.
	rejected int
}

// cluster is the benchmark's deployment: every miner of every shard on one
// synchronous network, each with its own file store.
type cluster struct {
	net     *p2p.Network
	layout  *layout
	members [][]*member // members[shard][j]
	reward  uint64      // block reward of every shard
	// wrap, when set, decorates each miner's store (the traced run's
	// timing decorator).
	wrap func(store.Store) store.Store
}

// genesisAlloc funds the users of one shard.
func genesisAlloc(l *layout, shard int) map[types.Address]uint64 {
	alloc := make(map[types.Address]uint64, len(l.users[shard]))
	for _, a := range l.users[shard] {
		alloc[a] = userFunds
	}
	return alloc
}

// newCluster constructs every miner with node.New under dataDir. It is the
// timed set-up: genesis state and root, store open and network join.
func newCluster(w workload, l *layout, dataDir string, wrap func(store.Store) store.Store) (*cluster, error) {
	c := &cluster{net: p2p.NewNetwork(), layout: l, wrap: wrap}
	for s, shard := range l.shards {
		cc := chain.DefaultConfig(shard)
		cc.Difficulty = difficulty
		cc.StateHistory = stateHistory
		cc.FinalityDepth = finalityDepth
		cc.MaxBlockTxs = w.blockTxs
		c.reward = cc.BlockReward
		alloc := genesisAlloc(l, s)
		var row []*member
		for j, key := range l.minerKeys[s] {
			mb := &member{
				id:  p2p.NodeID(fmt.Sprintf("s%d-m%d", s, j)),
				dir: filepath.Join(dataDir, fmt.Sprintf("s%d-m%d", s, j)),
				cfg: node.Config{
					Key: key, Shard: shard,
					Randomness: l.randomness, Fractions: l.fractions,
					ChainConfig: cc, GenesisAlloc: alloc, Contracts: l.code,
					Directory: l.dir, XShardFinality: xshardFinality,
					Sync: chainsync.Config{Timeout: 50 * time.Millisecond, Seed: int64(s*minersPerShard + j)},
				},
			}
			if err := c.open(mb); err != nil {
				_ = c.close() // the open error is what the caller reports
				return nil, err
			}
			row = append(row, mb)
		}
		c.members = append(c.members, row)
	}
	return c, nil
}

// open (re)starts a member's miner on its file store.
func (c *cluster) open(mb *member) error {
	fs, err := store.Open(mb.dir)
	if err != nil {
		return err
	}
	cfg := mb.cfg
	cfg.Store = fs
	if c.wrap != nil {
		cfg.Store = c.wrap(fs)
	}
	m, err := node.New(c.net, mb.id, cfg)
	if err != nil {
		_ = fs.Close() //shardlint:errdrop the open error is what the caller reports
		return fmt.Errorf("node %s: %w", mb.id, err)
	}
	mb.m = m
	return nil
}

// stop closes a member's miner and takes it off the network.
func (c *cluster) stop(mb *member) error {
	mb.rejected += mb.m.Stats().BlocksRejected
	err := mb.m.Close()
	c.net.Leave(mb.id)
	mb.m = nil
	return err
}

// close shuts every running miner down, reporting the first error.
func (c *cluster) close() error {
	var first error
	for _, row := range c.members {
		for _, mb := range row {
			if mb.m == nil {
				continue
			}
			if err := c.stop(mb); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// live lists the running miners, shard by shard.
func (c *cluster) live() []*node.Miner {
	var out []*node.Miner
	for s := range c.members {
		out = append(out, c.running(s)...)
	}
	return out
}

// running lists the running miners of one shard.
func (c *cluster) running(shard int) []*node.Miner {
	var out []*node.Miner
	for _, mb := range c.members[shard] {
		if mb.m != nil {
			out = append(out, mb.m)
		}
	}
	return out
}

// producer picks the shard's miner for a slot, rotating over the running
// ones.
func (c *cluster) producer(shard, slot int) *node.Miner {
	up := c.running(shard)
	return up[slot%len(up)]
}

// relayer is the shard's miner that relays burns; it is never the one
// closed by the restart phase.
func (c *cluster) relayer(shard int) *node.Miner { return c.members[shard][0].m }

// setupClusters builds the cluster in fresh directories at least
// minSetupReps times and until minSetupSecs of set-up time have been
// measured, keeps the last one and returns every build time, so set-up
// cost is reported as a median rather than as one sample. Each build starts
// from a collected heap, so no build pays for the garbage of the input
// generation or of the build before it.
func setupClusters(w workload, l *layout, dataDir string, wrap func(store.Store) store.Store) (*cluster, []float64, error) {
	var times []float64
	var c *cluster
	total := 0.0
	for r := 0; r < maxSetupReps && (r < minSetupReps || total < minSetupSecs); r++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, nil, err
			}
		}
		dir := filepath.Join(dataDir, fmt.Sprintf("setup-%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		var err error
		c, err = newCluster(w, l, dir, wrap)
		times = append(times, time.Since(start).Seconds())
		total += times[len(times)-1]
		if err != nil {
			return nil, nil, err
		}
	}
	return c, times, nil
}
