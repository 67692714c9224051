package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition checks a Prometheus text-format document for the
// invariants a scraper relies on: well-formed metric and label names, TYPE
// headers declared once and before the family's samples, parseable sample
// values, no duplicate series, and — for histograms — cumulative
// non-decreasing buckets, a mandatory le="+Inf" bucket, and _count equal
// to the +Inf bucket. It is the checked-in stand-in for `promtool check
// metrics` in environments without promtool.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	types := map[string]string{}   // family → declared type
	sampled := map[string]bool{}   // family → samples seen
	seen := map[string]bool{}      // full series identity → present
	hists := map[string]*histAcc{} // family + base labels → histogram accumulator
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, types, sampled); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		series := name + "|" + canonLabels(labels)
		if seen[series] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, strings.TrimSpace(line))
		}
		seen[series] = true

		fam, suffix := familyOf(name, types)
		sampled[fam] = true
		if t, ok := types[fam]; ok && t == "histogram" {
			key := fam + "|" + canonLabels(dropLabel(labels, "le"))
			h := hists[key]
			if h == nil {
				h = &histAcc{fam: fam}
				hists[key] = h
			}
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
				}
				h.buckets = append(h.buckets, bucketSample{le: le, value: value, line: lineNo})
			case "_sum":
				h.hasSum = true
			case "_count":
				h.count = value
				h.hasCount = true
			default:
				return fmt.Errorf("line %d: histogram family %s has plain sample %s", lineNo, fam, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := hists[k].validate(); err != nil {
			return err
		}
	}
	return nil
}

type bucketSample struct {
	le    string
	value float64
	line  int
}

type histAcc struct {
	fam      string
	buckets  []bucketSample
	count    float64
	hasCount bool
	hasSum   bool
}

func (h *histAcc) validate() error {
	if len(h.buckets) == 0 {
		return fmt.Errorf("histogram %s has no _bucket samples", h.fam)
	}
	type edge struct {
		le    float64
		value float64
	}
	edges := make([]edge, 0, len(h.buckets))
	var inf *bucketSample
	for i := range h.buckets {
		b := &h.buckets[i]
		if b.le == "+Inf" {
			inf = b
			continue
		}
		le, err := strconv.ParseFloat(b.le, 64)
		if err != nil {
			return fmt.Errorf("line %d: histogram %s has unparseable le=%q", b.line, h.fam, b.le)
		}
		edges = append(edges, edge{le: le, value: b.value})
	}
	if inf == nil {
		return fmt.Errorf("histogram %s is missing its le=\"+Inf\" bucket", h.fam)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].le < edges[j].le })
	prev := 0.0
	for _, e := range edges {
		if e.value < prev {
			return fmt.Errorf("histogram %s buckets are not cumulative: le=%v value %v < %v", h.fam, e.le, e.value, prev)
		}
		prev = e.value
	}
	if inf.value < prev {
		return fmt.Errorf("histogram %s +Inf bucket %v below its largest finite bucket %v", h.fam, inf.value, prev)
	}
	if !h.hasCount {
		return fmt.Errorf("histogram %s is missing _count", h.fam)
	}
	if !h.hasSum {
		return fmt.Errorf("histogram %s is missing _sum", h.fam)
	}
	if h.count != inf.value {
		return fmt.Errorf("histogram %s _count %v != +Inf bucket %v", h.fam, h.count, inf.value)
	}
	return nil
}

// familyOf strips a histogram sample suffix when the base family is
// declared as a histogram, returning (family, suffix).
func familyOf(name string, types map[string]string) (string, string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if types[base] == "histogram" {
				return base, suf
			}
		}
	}
	return name, ""
}

func validateComment(line string, types map[string]string, sampled map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("duplicate TYPE line for %s", name)
		}
		if sampled[name] {
			return fmt.Errorf("TYPE line for %s after its samples", name)
		}
		types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !validName(fields[2]) {
			return fmt.Errorf("invalid metric name %q in HELP line", fields[2])
		}
	}
	return nil
}

// parseSample splits `name{labels} value [timestamp]` into its parts.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err = parseLabels(rest[brace+1 : end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample without value: %q", line)
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp:])
	}
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	parts := strings.Fields(rest)
	if len(parts) < 1 || len(parts) > 2 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	value, err = parseValue(parts[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q: %w", parts[0], err)
	}
	if len(parts) == 2 {
		if _, terr := strconv.ParseInt(parts[1], 10, 64); terr != nil {
			return "", nil, 0, fmt.Errorf("unparseable timestamp %q", parts[1])
		}
	}
	return name, labels, value, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses `k="v",k2="v2"` with exposition-format escapes.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	i := 0
	for i < len(s) {
		// Key.
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j == len(s) {
			return nil, fmt.Errorf("label without value in %q", s)
		}
		key := strings.TrimSpace(s[i:j])
		if !validName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		// Opening quote.
		j++
		if j >= len(s) || s[j] != '"' {
			return nil, fmt.Errorf("label value of %q not quoted", key)
		}
		j++
		var b strings.Builder
		closed := false
		for j < len(s) {
			c := s[j]
			if c == '\\' && j+1 < len(s) {
				switch s[j+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %q", s[j+1], key)
				}
				j += 2
				continue
			}
			if c == '"' {
				closed = true
				j++
				break
			}
			b.WriteByte(c)
			j++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate label %q", key)
		}
		out[key] = b.String()
		// Separator.
		for j < len(s) && (s[j] == ' ' || s[j] == '\t') {
			j++
		}
		if j < len(s) {
			if s[j] != ',' {
				return nil, fmt.Errorf("expected ',' after label %q", key)
			}
			j++
		}
		i = j
	}
	return out, nil
}

func canonLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + labels[k] + ";"
	}
	return s
}

func dropLabel(labels map[string]string, key string) map[string]string {
	if _, ok := labels[key]; !ok {
		return labels
	}
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != key {
			out[k] = v
		}
	}
	return out
}
