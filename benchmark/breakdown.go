package main

import (
	"sort"

	"ingrass/internal/obs/trace"
)

// tracedOp is one traced request split into the time each layer spent on
// it, from the spans the program emits (batch_group, solve_outer,
// solve_inner, wal_append, wal_fsync) under the harness's root span. The
// parts add up to Latency, which runs from the op's due time.
type tracedOp struct {
	Class   string  // read or write
	Latency float64 // ms
	Parts   map[string]float64
	Attrs   map[string]float64
}

// Parts of each class, in the order a request crosses them. A layer's
// part is its self time: its span minus the child spans inside it.
// loadgen.late is the generator's lateness; harness is the time between
// the harness's root span and its latency stamps.
var partNames = map[string][]string{
	"read": {"loadgen.late", "service.read_self", "batch.queue_wait", "batch.exec_self",
		"solver.outer_self", "precond.inner", "harness"},
	"write": {"loadgen.late", "service.write_self", "wal.append_self", "wal.fsync", "harness"},
}

// unattributedParts are the parts no span below the root names.
var unattributedParts = map[string][]string{
	"read":  {"service.read_self", "harness"},
	"write": {"service.write_self", "harness"},
}

// addOverhead records by how much the traced ops' median latency exceeds
// the untraced ones' of the same run, in percent.
func addOverhead(l layers, traced, untraced []float64) {
	if len(traced) > 0 && len(untraced) > 0 {
		l.add("trace.overhead_op_p50_pct", 100*(median(traced)/median(untraced)-1))
	}
}

func classOf(k opKind) string {
	if k == opWrite {
		return "write"
	}
	return "read"
}

func splitSpans(class string, snap *trace.TraceSnapshot, latency, late float64) tracedOp {
	t := tracedOp{Class: class, Latency: latency, Parts: map[string]float64{}, Attrs: map[string]float64{}}
	t.Attrs["dropped_spans"] = float64(snap.DroppedSpans)
	if len(snap.Spans) == 0 {
		return t
	}
	ms := func(sp trace.SpanSnapshot) float64 { return float64(sp.DurationNanos) / 1e6 }
	find := func(name, parent string) trace.SpanSnapshot {
		for _, sp := range snap.Spans {
			if sp.Name == name && sp.Parent == parent {
				return sp
			}
		}
		return trace.SpanSnapshot{}
	}
	root := snap.Spans[0]
	t.Parts["loadgen.late"] = late
	t.Parts["harness"] = latency - late - ms(root)
	switch class {
	case "read":
		group := find("batch_group", root.ID)
		outer := find("solve_outer", group.ID)
		var inner float64
		for _, sp := range snap.Spans {
			if sp.Name == "solve_inner" && sp.Parent == outer.ID {
				inner += ms(sp)
			}
		}
		wait := float64(group.Attrs["queue_wait_ns"]) / 1e6
		t.Parts["service.read_self"] = ms(root) - ms(group)
		t.Parts["batch.queue_wait"] = wait
		t.Parts["batch.exec_self"] = ms(group) - wait - ms(outer)
		t.Parts["solver.outer_self"] = ms(outer) - inner
		t.Parts["precond.inner"] = inner
		t.Attrs["width"] = float64(group.Attrs["width"])
		t.Attrs["iterations"] = float64(outer.Attrs["iterations"])
		t.Attrs["inner_uses"] = float64(outer.Attrs["inner_uses"])
	case "write":
		app := find("wal_append", root.ID)
		fsync := find("wal_fsync", app.ID)
		t.Parts["service.write_self"] = ms(root) - ms(app)
		t.Parts["wal.append_self"] = ms(app) - ms(fsync)
		t.Parts["wal.fsync"] = ms(fsync)
		t.Attrs["bytes"] = float64(app.Attrs["bytes"])
	}
	var un float64
	for _, p := range unattributedParts[class] {
		un += t.Parts[p]
	}
	t.Attrs["unattributed_pct"] = 100 * un / latency
	return t
}

// addTraced adds traced ops to l as per-layer samples keyed "<part>_ms"
// and "<class>.<attr>". Lateness is already sampled for every op.
func addTraced(l layers, ops []tracedOp) {
	for _, t := range ops {
		for _, p := range partNames[t.Class] {
			if p != "loadgen.late" {
				l.add(p+"_ms", t.Parts[p])
			}
		}
		for k, v := range t.Attrs {
			l.add(t.Class+"."+k, v)
		}
	}
}

// breakdownRow is the mean split, and the mean span attributes, of the
// traced ops of one class whose latency lies within five percentile points
// of a band (p50 or p90).
type breakdownRow struct {
	Class   string             `json:"class"`
	Band    string             `json:"band"`
	Ops     int                `json:"ops"`
	Latency float64            `json:"latency_ms"`
	Parts   map[string]float64 `json:"parts_ms"`
	Attrs   map[string]float64 `json:"attrs"`
}

func breakdown(ops []tracedOp) []breakdownRow {
	var rows []breakdownRow
	for _, class := range []string{"read", "write"} {
		var cs []tracedOp
		for _, t := range ops {
			if t.Class == class {
				cs = append(cs, t)
			}
		}
		if len(cs) == 0 {
			continue
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].Latency < cs[j].Latency })
		for _, band := range []struct {
			name string
			p    float64
		}{{"p50", 50}, {"p90", 90}} {
			lo := int(float64(len(cs)) * (band.p - 5) / 100)
			hi := max(lo+1, min(len(cs), int(float64(len(cs))*(band.p+5)/100)))
			row := breakdownRow{Class: class, Band: band.name, Ops: hi - lo,
				Parts: map[string]float64{}, Attrs: map[string]float64{}}
			for _, t := range cs[lo:hi] {
				row.Latency += t.Latency / float64(hi-lo)
				for _, p := range partNames[class] {
					row.Parts[p] += t.Parts[p] / float64(hi-lo)
				}
				for k, v := range t.Attrs {
					row.Attrs[k] += v / float64(hi-lo)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}
