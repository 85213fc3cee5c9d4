package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// specKeys documents the fault-spec vocabulary; validation errors list it
// so bad input fails fast instead of being silently clamped.
var specKeys = map[string]string{
	"seed":    "integer RNG seed (default 1)",
	"drop":    "RPC drop probability in [0,1]",
	"ackloss": "fraction of drops that lose only the ack, in [0,1]",
	"spike":   "latency-spike probability in [0,1]",
	"spikex":  "spike latency multiplier (positive integer)",
	"retries": "max RPC attempts per write-back (positive integer)",
	"backoff": "first retry delay (Go duration, e.g. 250ms)",
	"cap":     "max retry delay (Go duration, e.g. 4s)",
	"outage":  "server-down windows START+DUR[/START+DUR...], DUR may be 'never' (e.g. 120s+60s)",
	"shed":    "volatile caches shed bytes on exhaustion instead of stalling",
}

// ValidSpecKeys lists the fault-spec keys, sorted, for error messages and
// usage text.
func ValidSpecKeys() string {
	keys := make([]string, 0, len(specKeys))
	for k := range specKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// SpecUsage renders one line per fault-spec key for CLI usage text.
func SpecUsage() string {
	keys := make([]string, 0, len(specKeys))
	for k := range specKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-8s %s\n", k, specKeys[k])
	}
	return b.String()
}

// ParseSpec parses a comma-separated key=value fault specification, e.g.
//
//	seed=7,drop=0.05,spike=0.1,outage=120s+60s
//
// into a Profile. Unknown keys and malformed values are errors that name
// the valid vocabulary. An empty spec is an error (use no flag at all for
// a fault-free run).
func ParseSpec(spec string) (*Profile, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty spec; valid keys: %s", ValidSpecKeys())
	}
	p := &Profile{Seed: 1, AckLossRate: 0.25}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		key = strings.TrimSpace(key)
		if _, ok := specKeys[key]; !ok {
			return nil, fmt.Errorf("faults: unknown key %q; valid keys: %s", key, ValidSpecKeys())
		}
		if key == "shed" {
			if hasVal && val != "true" && val != "false" {
				return nil, fmt.Errorf("faults: shed takes no value (or true/false), got %q", val)
			}
			p.Shed = !hasVal || val == "true"
			continue
		}
		if !hasVal || strings.TrimSpace(val) == "" {
			return nil, fmt.Errorf("faults: key %q needs a value (%s)", key, specKeys[key])
		}
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			p.DropRate, err = parseProb(val)
		case "ackloss":
			p.AckLossRate, err = parseProb(val)
		case "spike":
			p.SpikeRate, err = parseProb(val)
		case "spikex":
			p.SpikeFactor, err = parsePositiveInt(val)
		case "retries":
			var n int64
			if n, err = parsePositiveInt(val); err == nil {
				p.MaxAttempts = int(n)
			}
		case "backoff":
			p.BackoffBase, err = parseDurationUS(val)
		case "cap":
			p.BackoffCap, err = parseDurationUS(val)
		case "outage":
			p.Outages, err = parseOutages(val)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: key %q: %v (%s)", key, err, specKeys[key])
		}
	}
	return p, nil
}

func parseProb(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number: %q", s)
	}
	if !(f >= 0 && f <= 1) { // NaN fails both
		return 0, fmt.Errorf("%g outside [0,1]", f)
	}
	return f, nil
}

func parsePositiveInt(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not an integer: %q", s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("%d is not positive", n)
	}
	return n, nil
}

func parseDurationUS(s string) (int64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("not a duration: %q", s)
	}
	if d <= 0 {
		return 0, fmt.Errorf("duration %v is not positive", d)
	}
	if d < time.Microsecond {
		return 0, fmt.Errorf("duration %v is under the 1µs resolution", d)
	}
	return int64(d / time.Microsecond), nil
}

// parseOutages parses START+DUR windows separated by '/'; DUR "never"
// marks an unrecovering outage.
func parseOutages(s string) ([]Window, error) {
	var ws []Window
	for _, one := range strings.Split(s, "/") {
		start, dur, ok := strings.Cut(one, "+")
		if !ok {
			return nil, fmt.Errorf("window %q is not START+DUR", one)
		}
		d, err := time.ParseDuration(start)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("window %q start: not a non-negative duration: %q", one, start)
		}
		st := int64(d / time.Microsecond)
		w := Window{Start: st, End: Never}
		if dur != "never" {
			d, err := parseDurationUS(dur)
			if err != nil {
				return nil, fmt.Errorf("window %q duration: %v", one, err)
			}
			w.End = st + d
		}
		ws = append(ws, w)
	}
	return ws, nil
}
