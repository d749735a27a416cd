package pim

import (
	"strings"
	"testing"
)

func validTrace() *Trace {
	return &Trace{Channels: []ChannelTrace{{Channel: 0, Commands: []Command{
		{Kind: KindGWrite, Bursts: 4},
		{Kind: KindGAct, NewRow: true},
		{Kind: KindComp, Cols: 8},
		{Kind: KindReadRes, Bursts: 2},
	}}}}
}

func TestTraceDumpAndSummary(t *testing.T) {
	tr := validTrace()
	var b strings.Builder
	if err := tr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"channel 0", "GWRITE", "G_ACT", "COMP", "READRES", "cols=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	s := tr.Summary()
	if !strings.Contains(s, "1 channels") || !strings.Contains(s, "4 commands") {
		t.Errorf("summary %q", s)
	}
}
