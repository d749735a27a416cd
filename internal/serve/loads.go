package serve

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// LoadEntry is one parsed -load entry: the model spec plus the fleet
// placement options.
type LoadEntry struct {
	Spec ModelSpec
	// Replicas is the replica count (0: unset, the fleet's default of
	// one); Lazy defers placement to the first request.
	Replicas int
	Lazy     bool
}

// ParseLoads expands a -load list: comma-separated entries of the form
//
//	name=model;batch=N;window=D;cycles=N;slo=class
//
// where "name=" may be omitted (the serving name is then the model
// name) and every option is optional. defaults supplies the fields an
// entry does not set (policy, channel slice, SLO class). With placement
// on, entries also take replicas=N and the bare option "lazy"; without
// it they are unknown options. batch, cycles, and replicas must be
// positive, and window a positive whole number of milliseconds — the
// registry's wall-clock window resolution — so no value is silently
// truncated or replaced by a server default.
func ParseLoads(list string, defaults ModelSpec, placement bool) ([]LoadEntry, error) {
	var loads []LoadEntry
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		l, err := parseLoad(entry, defaults, placement)
		if err != nil {
			return nil, fmt.Errorf("load entry %q: %w", entry, err)
		}
		loads = append(loads, l)
	}
	return loads, nil
}

func parseLoad(entry string, defaults ModelSpec, placement bool) (LoadEntry, error) {
	parts := strings.Split(entry, ";")
	name, model, ok := strings.Cut(parts[0], "=")
	if !ok {
		model = name
	}
	name, model = strings.TrimSpace(name), strings.TrimSpace(model)
	if model == "" {
		return LoadEntry{}, fmt.Errorf("no model")
	}
	if name == "" {
		name = model
	}
	l := LoadEntry{Spec: defaults}
	l.Spec.Name, l.Spec.Model = name, model
	options := "batch, window, cycles, slo"
	if placement {
		options = "replicas, lazy, " + options
	}
	for _, opt := range parts[1:] {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		if placement && opt == "lazy" {
			l.Lazy = true
			continue
		}
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return LoadEntry{}, fmt.Errorf("option %q is not key=value", opt)
		}
		var err error
		switch {
		case key == "replicas" && placement:
			l.Replicas, err = positive(key, val)
		case key == "batch":
			l.Spec.MaxBatch, err = positive(key, val)
		case key == "window":
			l.Spec.BatchWindowMillis, err = wholeMillis(val)
		case key == "cycles":
			var n int
			n, err = positive(key, val)
			l.Spec.BatchWindowCycles = int64(n)
		case key == "slo":
			l.Spec.SLO = val
		default:
			err = fmt.Errorf("unknown option %q (%s)", key, options)
		}
		if err != nil {
			return LoadEntry{}, err
		}
	}
	return l, nil
}

// positive parses a positive integer option value.
func positive(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", key, err)
	}
	if n <= 0 {
		return 0, fmt.Errorf("%s=%d is not positive", key, n)
	}
	return n, nil
}

// wholeMillis parses a window duration that is a positive whole number
// of milliseconds.
func wholeMillis(val string) (int64, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, fmt.Errorf("window: %v", err)
	}
	if d <= 0 || d%time.Millisecond != 0 {
		return 0, fmt.Errorf("window=%s is not a positive whole number of milliseconds", val)
	}
	return d.Milliseconds(), nil
}
