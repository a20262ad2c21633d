package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteSummary prints the per-phase breakdown collected since Enable (or
// the last ResetSummary) as an aligned text table: span name, call
// count, total and self wall seconds, and the per-name sums of numeric
// span attributes (modeled seconds, comm bytes, ...). Numeric-attribute
// columns are the union over all phases, so modeled seconds from the
// dist machine model line up against measured seconds.
func WriteSummary(w io.Writer) {
	stats := Summary()
	if len(stats) == 0 {
		fmt.Fprintln(w, "obs: no spans recorded")
		return
	}
	attrKeys := map[string]bool{}
	for _, s := range stats {
		for k := range s.Attrs {
			attrKeys[k] = true
		}
	}
	keys := make([]string, 0, len(attrKeys))
	for k := range attrKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	rows := [][]string{append([]string{"phase", "count", "total_s", "self_s"}, keys...)}
	for _, s := range stats {
		row := []string{
			s.Name,
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.4f", s.Total.Seconds()),
			fmt.Sprintf("%.4f", s.Self.Seconds()),
		}
		for _, k := range keys {
			if v, ok := s.Attrs[k]; ok {
				row = append(row, formatMetric(v))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	WriteTable(w, rows)
	if p := PeakBytes(); p > 0 {
		fmt.Fprintf(w, "peak scratch bytes: %d\n", p)
	}
}

// WriteTable prints rows[0] as a header, a rule under it, and the other
// rows, each column left-aligned to its widest cell, two spaces apart,
// with trailing blanks trimmed. Every text table the tools print goes
// through it.
func WriteTable(w io.Writer, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(rows[0])
	rule := make([]string, len(widths))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, r := range rows[1:] {
		line(r)
	}
}

// WriteMetrics prints the current counter/gauge snapshot, one per line.
func WriteMetrics(w io.Writer) {
	ms := Metrics()
	if len(ms) == 0 {
		return
	}
	width := 0
	for _, m := range ms {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%-*s  %s\n", width, m.Name, formatMetric(m.Value))
	}
}

// formatMetric renders integers without exponents and everything else
// compactly.
func formatMetric(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}
