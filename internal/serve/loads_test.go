package serve

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseLoads(t *testing.T) {
	defaults := ModelSpec{Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, SLO: "bronze"}
	spec := func(name, model string, edit func(*ModelSpec)) ModelSpec {
		s := defaults
		s.Name, s.Model = name, model
		if edit != nil {
			edit(&s)
		}
		return s
	}
	accepted := []struct {
		list      string
		placement bool
		want      []LoadEntry
	}{
		{"toy", false, []LoadEntry{{Spec: spec("toy", "toy", nil)}}},
		{" gold = mobilenet-v2 ;slo=gold;batch=8;cycles=200000, ,toy", false, []LoadEntry{
			{Spec: spec("gold", "mobilenet-v2", func(s *ModelSpec) {
				s.SLO, s.MaxBatch, s.BatchWindowCycles = "gold", 8, 200_000
			})},
			{Spec: spec("toy", "toy", nil)},
		}},
		{"a=toy;window=2ms", false, []LoadEntry{{Spec: spec("a", "toy", func(s *ModelSpec) { s.BatchWindowMillis = 2 })}}},
		{"a=toy;window=1.5s", false, []LoadEntry{{Spec: spec("a", "toy", func(s *ModelSpec) { s.BatchWindowMillis = 1500 })}}},
		{"=toy", false, []LoadEntry{{Spec: spec("toy", "toy", nil)}}},
		{"front=toy;replicas=2;lazy,back=toy", true, []LoadEntry{
			{Spec: spec("front", "toy", nil), Replicas: 2, Lazy: true},
			{Spec: spec("back", "toy", nil)},
		}},
	}
	for _, c := range accepted {
		got, err := ParseLoads(c.list, defaults, c.placement)
		if err != nil {
			t.Fatalf("%q: %v", c.list, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%q:\n got  %+v\n want %+v", c.list, got, c.want)
		}
	}

	rejected := []struct {
		list      string
		placement bool
		why       string
	}{
		// Each of these parsed without error before ParseLoads, and the
		// registry then silently applied a default: sub-millisecond
		// windows truncated to 0 ms (inherit) or to a whole millisecond,
		// and non-positive values fell back to the server's settings.
		{"a=toy;window=500us", false, "whole number of milliseconds"},
		{"a=toy;window=1500us", false, "whole number of milliseconds"},
		{"a=toy;window=0s", false, "whole number of milliseconds"},
		{"a=toy;window=-2ms", false, "whole number of milliseconds"},
		{"a=toy;batch=0", false, "not positive"},
		{"a=toy;batch=-1", false, "not positive"},
		{"a=toy;cycles=-5", false, "not positive"},
		{"a=toy;cycles=0", false, "not positive"},
		{"a=toy;replicas=0", true, "not positive"},
		{"a=toy;batch=x", false, "batch"},
		{"a=toy;window=fast", false, "window"},
		{"a=toy;batch", false, "not key=value"},
		{"a=toy;color=red", false, "unknown option"},
		{"a=", false, "no model"},
		{";batch=2", false, "no model"},
		// pimflow-serve has no placement: its entries take neither option.
		{"a=toy;replicas=2", false, "unknown option"},
		{"a=toy;lazy", false, "not key=value"},
	}
	for _, c := range rejected {
		_, err := ParseLoads(c.list, defaults, c.placement)
		if err == nil {
			t.Fatalf("%q accepted", c.list)
		}
		entry := strings.TrimSpace(strings.Split(c.list, ",")[0])
		if !strings.Contains(err.Error(), entry) || !strings.Contains(err.Error(), c.why) {
			t.Fatalf("%q: error %q does not name the entry and %q", c.list, err, c.why)
		}
	}
}

// FuzzParseLoads: the -load grammar never panics, and every accepted
// entry names a model and a serving name and sets no value the
// registry would silently replace.
func FuzzParseLoads(f *testing.F) {
	for _, seed := range []string{
		"toy",
		"gold=mobilenet-v2;slo=gold;batch=8;cycles=200000,bronze=mobilenet-v2;slo=bronze",
		"a=toy;window=2ms;replicas=2;lazy",
		"a=toy;window=500us",
		"=;;,=,;lazy=;batch=-1",
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, list string, placement bool) {
		loads, err := ParseLoads(list, ModelSpec{Policy: "PIMFlow"}, placement)
		if err != nil {
			return
		}
		for _, l := range loads {
			s := l.Spec
			if s.Name == "" || s.Model == "" {
				t.Fatalf("%q: entry without a name or model: %+v", list, l)
			}
			if s.MaxBatch < 0 || s.BatchWindowMillis < 0 || s.BatchWindowCycles < 0 || l.Replicas < 0 {
				t.Fatalf("%q: negative value accepted: %+v", list, l)
			}
			if !placement && (l.Replicas != 0 || l.Lazy) {
				t.Fatalf("%q: placement option accepted without placement: %+v", list, l)
			}
		}
	})
}
