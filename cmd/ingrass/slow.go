package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"ingrass/internal/obs/trace"
)

// cmdSlow fetches a server's (or router's) flight recorder at
// GET /debug/requests and renders each retained trace as a per-span
// waterfall: one row per span, indented by parentage, with a bar showing
// where the span sits on the request's timeline. Stitched cross-process
// traces (router + backend) render on one shared timeline, each span
// tagged with the process it ran in.
//
//	ingrass slow http://127.0.0.1:8090
//	ingrass slow -endpoint solve -n 3 http://127.0.0.1:8080
func cmdSlow(args []string) {
	fs := flag.NewFlagSet("slow", flag.ExitOnError)
	endpoint := fs.String("endpoint", "", "filter to one endpoint")
	traceID := fs.String("trace", "", "filter to one trace ID (32 hex)")
	limit := fs.Int("n", 10, "render at most this many traces")
	width := fs.Int("width", 48, "waterfall bar width in characters")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ingrass slow [-endpoint ep] [-trace id] [-n max] <base-url>")
		os.Exit(2)
	}
	base := strings.TrimRight(fs.Arg(0), "/")

	q := url.Values{}
	if *endpoint != "" {
		q.Set("endpoint", *endpoint)
	}
	if *traceID != "" {
		q.Set("trace", *traceID)
	}
	u := base + "/debug/requests"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fatal(fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body))))
	}
	var dr trace.DebugRequests
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		fatal(fmt.Errorf("decoding %s: %w", u, err))
	}
	if len(dr.Traces) == 0 {
		fmt.Println("no retained traces")
		return
	}
	for i, t := range dr.Traces {
		if i >= *limit {
			fmt.Printf("... %d more trace(s); raise -n to render them\n", len(dr.Traces)-i)
			break
		}
		if i > 0 {
			fmt.Println()
		}
		renderTrace(os.Stdout, t, *width)
	}
}

// spanRow is one waterfall line: a span plus the process it ran in and its
// indentation depth from parent links.
type spanRow struct {
	span  trace.SpanSnapshot
	proc  string
	depth int
	seq   int // position in collection order, the tie-break for equal starts
}

// collectRows flattens a trace and its stitched remote continuations into
// one row list. proc labels the local process ("" for the queried one).
func collectRows(t *trace.TraceSnapshot, proc string, rows []spanRow) []spanRow {
	for _, s := range t.Spans {
		rows = append(rows, spanRow{span: s, proc: proc, seq: len(rows)})
	}
	for _, rem := range t.Remote {
		for _, rt := range rem.Traces {
			rows = collectRows(rt, rem.Backend, rows)
		}
	}
	return rows
}

// byStart orders rows by span start, then by collection order.
func byStart(a, b spanRow) int {
	return cmp.Or(cmp.Compare(a.span.StartUnixNano, b.span.StartUnixNano), cmp.Compare(a.seq, b.seq))
}

// renderTrace prints one trace's waterfall to w.
func renderTrace(w io.Writer, t *trace.TraceSnapshot, width int) {
	rows := collectRows(t, "", nil)
	if len(rows) == 0 {
		return
	}

	// Depth from parent links; the links cross process boundaries because
	// a backend root's parent is the router's client span, which is also
	// in the row set of a stitched trace.
	parent := make(map[string]string, len(rows))
	for _, r := range rows {
		parent[r.span.ID] = r.span.Parent
	}
	depth := func(id string) int {
		d := 0
		for p := parent[id]; p != ""; p = parent[p] {
			if _, ok := parent[p]; !ok {
				break
			}
			d++
			if d > len(rows) { // defensive: broken links must not loop
				break
			}
		}
		return d
	}
	for i := range rows {
		rows[i].depth = depth(rows[i].span.ID)
	}
	slices.SortFunc(rows, byStart)

	t0 := rows[0].span.StartUnixNano
	t1 := t0
	for _, r := range rows {
		if end := r.span.StartUnixNano + r.span.DurationNanos; end > t1 {
			t1 = end
		}
	}
	total := t1 - t0
	if total <= 0 {
		total = 1
	}

	fmt.Fprintf(w, "trace %s  endpoint=%s  status=%d  reason=%s  duration=%s\n",
		t.TraceID, t.Endpoint, t.Status, t.Reason, fmtDur(t.DurationNanos))
	if t.DroppedSpans > 0 {
		fmt.Fprintf(w, "  (%d span(s) dropped: buffer overflow)\n", t.DroppedSpans)
	}
	for _, r := range rows {
		s := r.span
		lo := int(float64(s.StartUnixNano-t0) / float64(total) * float64(width))
		hi := int(float64(s.StartUnixNano+s.DurationNanos-t0) / float64(total) * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("=", hi-lo) + strings.Repeat(" ", width-hi)
		name := strings.Repeat("  ", r.depth) + s.Name
		durCol := fmtDur(s.DurationNanos)
		if s.Unfinished {
			durCol = "unfinished"
		}
		line := fmt.Sprintf("  [%s]  %-28s %10s", bar, name, durCol)
		if r.proc != "" {
			line += "  @" + r.proc
		}
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%d", k, s.Attrs[k])
			}
			line += "  " + strings.Join(parts, " ")
		}
		fmt.Fprintln(w, line)
	}
}

// fmtDur renders nanoseconds with sub-millisecond precision kept readable.
func fmtDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(100 * time.Nanosecond).String()
}
