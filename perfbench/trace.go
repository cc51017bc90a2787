package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"contractshard/internal/store"
)

// spanKind names a span recorded around one call of the load loop into a
// layer.
type spanKind uint8

const (
	spanSetup spanKind = iota
	spanSlot
	spanDecode
	spanSubmit
	spanMine
	spanRelay
	spanClose
	spanReopen
	spanCatchUp
	spanStoreAppend
	spanStorePut
	spanAudit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"setup", "slot", "types.decode", "node.submit", "node.mine", "node.relay",
	"node.close", "node.reopen", "node.catchup", "store.append", "store.put", "audit",
}

// span is one timed call. parent is the index of the innermost span open
// when it began (-1 for none): the load loop is one goroutine and the network
// delivers inline, so open spans nest exactly. n is a size the span
// carries: transactions decoded, blocks caught up, bytes stored.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64 // nanoseconds since the tracer started
	n          int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs skip it.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: parent, start: t.now()})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) { t.endN(i, 0) }

// endN closes span i, which must be the innermost open one, and records n.
func (t *tracer) endN(i int32, n int64) {
	if t == nil {
		return
	}
	t.spans[i].end = t.now()
	t.spans[i].n = n
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns every span's duration minus its children's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name         string
	count        int
	total, self  int64
	sharePercent float64
}

// layerTable sums span and self time per span name over [from, to) and
// adds an "untraced" row for the wall time no span covers, so the self
// column sums to to-from.
func layerTable(spans []span, from, to int64) []layerRow {
	self := selfTimes(spans)
	rows := make([]layerRow, numSpanKinds+1)
	var rooted int64
	for i, s := range spans {
		if s.start < from || s.end > to {
			continue
		}
		r := &rows[s.kind]
		r.count++
		r.total += s.end - s.start
		r.self += self[i]
		if s.parent < 0 || spans[s.parent].start < from || spans[s.parent].end > to {
			rooted += s.end - s.start
		}
	}
	for k := range spanNames {
		rows[k].name = spanNames[k]
	}
	rows[numSpanKinds] = layerRow{name: "untraced", self: to - from - rooted}
	for i := range rows {
		rows[i].sharePercent = 100 * float64(rows[i].self) / float64(to-from)
	}
	return rows
}

// spanStats sums the spans of one kind over [from, to).
func spanStats(spans []span, k spanKind, from, to int64) (count int, total, n int64) {
	for _, s := range spans {
		if s.kind == k && s.start >= from && s.end <= to {
			count++
			total += s.end - s.start
			n += s.n
		}
	}
	return count, total, n
}

// writeSpans writes the spans as tab-separated lines: index, name,
// parent, start and end in nanoseconds, and the span's size.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tparent\tstart_ns\tend_ns\tn")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.kind], s.parent, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() //shardlint:errdrop the flush error is the one reported
		return err
	}
	return f.Close()
}

func printLayerTable(out io.Writer, rows []layerRow) {
	fmt.Fprintf(out, "%-14s %9s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	var sum int64
	for _, r := range rows {
		if r.count == 0 && r.self == 0 {
			continue
		}
		sum += r.self
		fmt.Fprintf(out, "%-14s %9d %12.1f %12.1f %6.1f%%\n", r.name, r.count, ms(time.Duration(r.total)), ms(time.Duration(r.self)), r.sharePercent)
	}
	fmt.Fprintf(out, "%-14s %9s %12s %12.1f\n", "sum", "", "", ms(time.Duration(sum)))
}

// timedStore decorates a miner's store with spans around block appends
// and key-value writes; the spans carry the bytes written.
type timedStore struct {
	store.Store
	tr *tracer
}

func (s timedStore) AppendBlock(raw []byte) error {
	i := s.tr.begin(spanStoreAppend)
	err := s.Store.AppendBlock(raw)
	s.tr.endN(i, int64(len(raw)))
	return err
}

func (s timedStore) Put(key string, value []byte) error {
	i := s.tr.begin(spanStorePut)
	err := s.Store.Put(key, value)
	s.tr.endN(i, int64(len(key)+len(value)))
	return err
}
