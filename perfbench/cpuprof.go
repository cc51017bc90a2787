package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// CPU attribution: every profile sample is charged to the innermost frame
// that is a listed entry point of a repository package, and to the layer
// that package forms. Helpers such as encoders and hashers are not entry
// points, so their cost stays with the entry point that called them.
// Samples with no entry point on the stack (the load loop, the garbage
// collector's workers, the scheduler) are charged to "runtime".

const modulePrefix = "contractshard/internal/"

// entryPoints lists, per layer (the package name), the functions and
// methods whose cost is attributed to that layer.
var entryPoints = map[string][]string{
	"state": {"New", "Decode", "NewRecorder",
		"(*State).Root", "(*State).Copy", "(*State).Encode", "(*State).Accounts",
		"(*State).Exists", "(*State).GetBalance", "(*State).AddBalance", "(*State).SubBalance",
		"(*State).SetBalance", "(*State).Transfer", "(*State).GetNonce", "(*State).SetNonce",
		"(*State).GetCode", "(*State).SetCode", "(*State).IsContract", "(*State).GetStorage",
		"(*State).SetStorage", "(*State).Snapshot", "(*State).RevertToSnapshot", "(*State).DiscardJournal",
		"(*Recorder).CommitTo", "(*Recorder).CanCommitTo"},
	"trie": {"(*Trie).Put", "(*Trie).Get", "(*Trie).Delete", "(*Trie).Hash", "(*Trie).Copy",
		"(*Trie).Range", "(*Trie).SortedKeys"},
	"crypto": {"VerifyTx", "VerifyTxCached", "(*VerifyCache).VerifyTx", "SignTx", "Sign", "Verify",
		"NewMerkleTree", "(*MerkleTree).Prove", "VerifyProof", "PubkeyToAddress"},
	"types": {"DecodeBlock", "DecodeHeader", "DecodeTransaction", "DecodeTransactions",
		"EncodeTransactions", "(*Block).Encode", "NewBlock", "TxRoot", "BuildTxProof", "VerifyTxProof"},
	"chain": {"New", "NewWithContracts", "Import", "(*Chain).AddBlock", "(*Chain).BuildBlock",
		"(*Chain).BuildBlockWithProof", "(*Chain).MineNext", "(*Chain).Flush", "(*Chain).Close",
		"(*Chain).StateAt", "(*Chain).HeadState", "(*Chain).HeadSnapshot", "(*Chain).HeadBalance",
		"(*Chain).HeadNonce", "(*Chain).GetBlock", "(*Chain).HasBlock", "(*Chain).CanonicalHashAt",
		"(*Chain).CanonicalBlocks", "(*Chain).BlocksByRange", "(*Chain).Locator",
		"(*Chain).CommonAncestor", "(*Chain).FindTx", "(*Chain).ProveInclusion", "(*Chain).GetReceipt",
		"(*Chain).BlockReceipts"},
	"exec":     {"Run"},
	"contract": {"Execute"},
	"mempool": {"New", "(*Pool).Add", "(*Pool).AddAll", "(*Pool).Remove", "(*Pool).RemoveTxs",
		"(*Pool).TakeTop", "(*Pool).FilterTop", "(*Pool).TakeSet", "(*Pool).Pending", "(*Pool).Filter",
		"(*Pool).Contains", "(*Pool).Get", "(*Pool).Size"},
	"p2p": {"NewNetwork", "(*Network).Join", "(*Network).Leave", "(*Network).Stats",
		"(*Node).Broadcast", "(*Node).Send", "(*Node).Request", "(*Node).PeersInShard",
		"(*Node).Subscribe", "(*Node).SetShard"},
	// node.New covers the gossip handlers it installs: their closures are
	// folded into it.
	"node": {"New", "(*Miner).Mine", "(*Miner).SubmitTx", "(*Miner).RelayXShard", "(*Miner).CatchUp",
		"(*Miner).Close", "(*Miner).Flush", "(*Miner).Head", "(*Miner).Height", "(*Miner).Pending",
		"(*Miner).BalanceOf", "(*Miner).Stats"},
	"sharding": {"RouteTx", "VerifyMembership", "AssignMiner", "ComputeFractions",
		"(*Directory).ShardOf", "(*Directory).Register"},
	"callgraph": {"(*Graph).ObserveTx", "(*Graph).ObserveContractCall", "(*Graph).ObserveDirectTransfer",
		"(*Graph).Classify", "New"},
	"xshard": {"CheckMint", "NewBurn", "NewMint", "NewHeaderBook", "(*HeaderBook).Add",
		"(*HeaderBook).AcceptProof", "(*HeaderBook).Attach", "(*HeaderBook).Has", "(*Relay).Step"},
	"pow": {"Seal", "Verify"},
	"store": {"Open", "(*FileStore).AppendBlock", "(*FileStore).Blocks", "(*FileStore).TruncateBlocks",
		"(*FileStore).Put", "(*FileStore).Get", "(*FileStore).Delete", "(*FileStore).Flush",
		"(*FileStore).Close"},
	"chainsync": {"New", "(*Syncer).CatchUp", "(*Syncer).AddOrphan"},
}

// cpuLayers is the order layers are reported in; "runtime" takes the rest.
var cpuLayers = []string{"state", "trie", "crypto", "types", "chain", "exec", "contract", "mempool",
	"p2p", "node", "sharding", "callgraph", "xshard", "pow", "store", "chainsync", "runtime"}

var entryLayer = func() map[string]string {
	m := make(map[string]string)
	for layer, fns := range entryPoints {
		for _, fn := range fns {
			m[modulePrefix+layer+"."+fn] = layer
		}
	}
	return m
}()

// closureSuffix matches the compiler's names for closures and go-statement
// wrappers, which belong to their enclosing function.
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap)\d+)+(\.\d+)*$`)

// layerOf returns the layer of a frame's function, or "" when the frame is
// not an entry point.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	return entryLayer[closureSuffix.ReplaceAllString(fn, "")]
}

// attributeCPU charges every sample of a gzipped pprof CPU profile to a
// layer and returns nanoseconds per layer.
func attributeCPU(profile []byte) (map[string]int64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(fn); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += s.nanos
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	samples []sample
	// locFuncs maps a location id to its function names, innermost
	// (inlined callee) first.
	locFuncs map[uint64][]string
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
}

// parseProfile decodes the fields of a gzipped profile.proto message that
// attribution needs: samples (their location ids and CPU value), locations
// (their lines' function ids), functions (their names) and the string
// table. The CPU value is the sample's last value, the one whose type is
// "cpu/nanoseconds" in a runtime/pprof CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = make(map[uint64]int64) // function id -> string index
		locLines = make(map[uint64][]uint64)
		p        = &profile{locFuncs: make(map[uint64][]string)}
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var vals []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					return appendVarints(&vals, w, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nanos = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fns := range locLines {
		for _, fn := range fns {
			idx := funcName[fn]
			if idx < 0 || idx >= int64(len(strs)) {
				return nil, errors.New("profile: function name out of range")
			}
			p.locFuncs[loc] = append(p.locFuncs[loc], strs[idx])
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// protoFields walks the top-level fields of a protobuf message, handing
// each varint field's value or each length-delimited field's bytes to fn.
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
