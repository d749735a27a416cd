package pim

import (
	"fmt"
	"io"
	"strings"
)

// Dump writes a human-readable command trace listing, one channel per
// section — the equivalent of the paper artifact's generated PIM command
// trace files that the Ramulator-based simulator consumed.
func (t *Trace) Dump(w io.Writer) error {
	for _, ch := range t.Channels {
		if _, err := fmt.Fprintf(w, "channel %d: %d commands\n", ch.Channel, len(ch.Commands)); err != nil {
			return err
		}
		for i, cmd := range ch.Commands {
			var detail string
			switch {
			case cmd.Kind.IsGWrite():
				detail = fmt.Sprintf("bursts=%d", cmd.Bursts)
			case cmd.Kind == KindGAct:
				detail = fmt.Sprintf("new_row=%v", cmd.NewRow)
			case cmd.Kind == KindComp:
				detail = fmt.Sprintf("cols=%d", cmd.Cols)
			case cmd.Kind == KindReadRes:
				detail = fmt.Sprintf("bursts=%d", cmd.Bursts)
			}
			if _, err := fmt.Fprintf(w, "  %6d %-9s %s\n", i, cmd.Kind, detail); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary returns a one-line description of the trace.
func (t *Trace) Summary() string {
	var c Counts
	for _, ch := range t.Channels {
		c.Add(CountOf(ch))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d channels, %d commands: %d GWRITE (%d bursts), %d G_ACT, %d COMP (%d colIOs), %d READRES",
		len(t.Channels), t.TotalCommands(), c.GWrites, c.GWBursts, c.GActs, c.Comps, c.ColIOs, c.ReadRes)
	return b.String()
}
