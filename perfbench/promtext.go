package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSeries is one parsed /metrics sample line.
type promSeries struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm parses the Prometheus text exposition format as simd writes it:
// comment lines are skipped, each other line is name{k="v",...} value.
func parseProm(r io.Reader) ([]promSeries, error) {
	var out []promSeries
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		s := promSeries{Value: v, Labels: map[string]string{}}
		head := line[:sp]
		if lb := strings.IndexByte(head, '{'); lb >= 0 {
			if !strings.HasSuffix(head, "}") {
				return nil, fmt.Errorf("metrics line %q: unterminated labels", line)
			}
			s.Name = head[:lb]
			if err := parseLabels(head[lb+1:len(head)-1], s.Labels); err != nil {
				return nil, fmt.Errorf("metrics line %q: %v", line, err)
			}
		} else {
			s.Name = head
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses k="v" pairs separated by commas (values are Go-quoted).
func parseLabels(s string, into map[string]string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label without value in %q", s)
		}
		k := s[:eq]
		rest := s[eq+1:]
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return fmt.Errorf("label %s: %v", k, err)
		}
		v, _ := strconv.Unquote(q) // QuotedPrefix returned a valid literal
		into[k] = v
		s = strings.TrimPrefix(rest[len(q):], ",")
	}
	return nil
}

// promSum sums every series named name whose labels include match.
func promSum(ss []promSeries, name string, match map[string]string) float64 {
	total := 0.0
next:
	for _, s := range ss {
		if s.Name != name {
			continue
		}
		for k, v := range match {
			if s.Labels[k] != v {
				continue next
			}
		}
		total += s.Value
	}
	return total
}
