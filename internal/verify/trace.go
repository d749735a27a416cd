package verify

import (
	"fmt"

	"pimflow/internal/codegen"
	"pimflow/internal/pim"
)

// Trace lints a hand-built PIM command trace by replaying its channels
// through the streaming linter Workload uses, so there is one state
// machine. Each violation carries the channel, command index, and kind.
func Trace(tr *pim.Trace, cfg pim.Config) []Diagnostic {
	return replay(tr, cfg).finish()
}

// linter is a pim.Sink that lints a command stream against the Newton/AiM
// protocol (paper §4.1) as it is produced, one channel state machine at a
// time:
//
//   - a GWRITE variant must fill the global buffer before any COMP
//     consumes it, and must fit the channel's buffer capacity;
//   - a G_ACT must open a weight row before any COMP streams column I/Os
//     (G_ACT before GWRITE is legal — that is the §4.1 latency-hiding
//     overlap);
//   - READRES drains result latches, so it needs at least one COMP since
//     the buffer was last filled, and every COMP must eventually be
//     drained before the channel ends.
//
// It also tallies the volumes TR-COVER compares against the workload
// oracle. Nothing is buffered, so it allocates O(channels) however long
// the stream is. It walks every command on purpose: the verifier stays
// independent of the timing engine's steady-state fast-forward.
type linter struct {
	cfg   pim.Config
	diags []Diagnostic
	seen  map[int]bool // channel ids begun so far
	got   pim.Counts   // GWBursts, ColIOs, ReadRes and RRBursts only

	ch             int  // channel in flight; the fields below are its state
	i              int  // index of the next command within the channel
	bufCapBursts   int  // one GWRITE may fill every buffer, in whole bursts
	bufFilled      bool // some GWRITE variant has loaded the global buffer
	rowOpen        bool // some G_ACT has activated a weight row
	compsSinceGW   int  // COMP commands since the last buffer (re)fill
	undrainedComps int  // COMP commands since the last READRES
	lastUndrained  int  // index of the newest undrained COMP
}

// replay streams a stored trace's channels through a fresh linter.
func replay(tr *pim.Trace, cfg pim.Config) *linter {
	l := &linter{cfg: cfg, seen: map[int]bool{}}
	if tr != nil {
		for _, ct := range tr.Channels {
			l.BeginChannel(ct.Channel)
			for _, cmd := range ct.Commands {
				l.Emit(cmd)
			}
		}
	}
	return l
}

// BeginChannel closes the channel in flight and opens channel ch.
func (l *linter) BeginChannel(ch int) {
	l.endChannel()
	l.ch, l.i = ch, 0
	if ch < 0 || ch >= l.cfg.Channels {
		l.bad(RuleTraceChannel, -1, 0, fmt.Sprintf("channel id outside configured 0..%d", l.cfg.Channels-1))
	}
	if l.seen[ch] {
		l.bad(RuleTraceChannelDup, -1, 0, "channel appears more than once in the trace")
	}
	l.seen[ch] = true
	l.bufCapBursts = l.cfg.GlobalBufs * ceilDiv(l.cfg.GlobalBufBytes, l.cfg.BurstBytes)
	l.bufFilled, l.rowOpen = false, false
	l.compsSinceGW, l.undrainedComps, l.lastUndrained = 0, 0, -1
}

// Emit advances the channel's state machine by one command.
func (l *linter) Emit(cmd pim.Command) {
	i := l.i
	l.i++
	switch {
	case cmd.Kind == pim.KindComp:
		if !l.bufFilled {
			l.bad(RuleTraceCompNoBuf, i, cmd.Kind, "COMP before any GWRITE filled the global buffer")
		}
		if !l.rowOpen {
			l.bad(RuleTraceCompNoAct, i, cmd.Kind, "COMP before any G_ACT opened a weight row")
		}
		if cmd.Cols < 1 || cmd.Cols > l.cfg.ColumnIOsPerRow {
			l.bad(RuleTraceCompCols, i, cmd.Kind, fmt.Sprintf(
				"COMP streams %d column I/Os, want 1..%d", cmd.Cols, l.cfg.ColumnIOsPerRow))
		}
		l.compsSinceGW++
		l.undrainedComps++
		l.lastUndrained = i
		l.got.ColIOs += int64(cmd.Cols)
	case cmd.Kind == pim.KindGAct:
		l.rowOpen = true
	case cmd.Kind == pim.KindReadRes:
		if l.compsSinceGW == 0 {
			l.bad(RuleTraceRRNoComp, i, cmd.Kind, "READRES with no COMP accumulated since the last buffer fill")
		}
		if cmd.Bursts < 1 {
			l.bad(RuleTraceBursts, i, cmd.Kind, fmt.Sprintf("READRES drains %d bursts, want >= 1", cmd.Bursts))
		}
		l.undrainedComps = 0
		l.got.ReadRes++
		l.got.RRBursts += int64(cmd.Bursts)
	case cmd.Kind.IsGWrite():
		if cmd.Kind == pim.KindGWrite2 && l.cfg.GlobalBufs < 2 {
			l.bad(RuleTraceGWBufs, i, cmd.Kind, fmt.Sprintf("GWRITE_2 with %d configured buffer(s)", l.cfg.GlobalBufs))
		}
		if cmd.Kind == pim.KindGWrite4 && l.cfg.GlobalBufs < 4 {
			l.bad(RuleTraceGWBufs, i, cmd.Kind, fmt.Sprintf("GWRITE_4 with %d configured buffer(s)", l.cfg.GlobalBufs))
		}
		if cmd.Bursts < 1 {
			l.bad(RuleTraceBursts, i, cmd.Kind, fmt.Sprintf("GWRITE moves %d bursts, want >= 1", cmd.Bursts))
		} else if cmd.Bursts > l.bufCapBursts {
			l.bad(RuleTraceGWOverflow, i, cmd.Kind, fmt.Sprintf(
				"GWRITE of %d bursts overflows %d buffer(s) of %d bytes (%d bursts)",
				cmd.Bursts, l.cfg.GlobalBufs, l.cfg.GlobalBufBytes, l.bufCapBursts))
		}
		l.bufFilled = true
		l.compsSinceGW = 0
		l.got.GWBursts += int64(cmd.Bursts)
	default:
		l.bad(RuleTraceKind, i, cmd.Kind, fmt.Sprintf("unknown command kind %d", uint8(cmd.Kind)))
	}
}

// bad records a violation on the channel in flight at command index i,
// or on the channel itself when i is -1.
func (l *linter) bad(rule string, i int, kind pim.Kind, msg string) {
	d := Diagnostic{Rule: rule, Channel: l.ch, Index: i, Msg: msg}
	if i >= 0 {
		d.Command = kind.String()
	}
	l.diags = append(l.diags, d)
}

// endChannel reports COMP results the channel in flight never drained.
func (l *linter) endChannel() {
	if l.undrainedComps > 0 {
		l.bad(RuleTraceDrain, l.lastUndrained, pim.KindComp, fmt.Sprintf(
			"channel ends with %d COMP command(s) never drained by a READRES", l.undrainedComps))
	}
}

// finish closes the stream and returns its protocol diagnostics.
func (l *linter) finish() []Diagnostic {
	l.endChannel()
	if len(l.seen) == 0 {
		return []Diagnostic{{Rule: RuleTraceEmpty, Channel: -1, Index: -1,
			Msg: "trace has no channel streams"}}
	}
	return l.diags
}

// totals is the workload-coverage oracle: the command volumes any correct
// per-channel distribution must produce, computed from the workload
// arithmetic independently of codegen's scheduler.
type totals struct {
	colIOs   int64 // total column I/Os across all COMPs
	readRes  int64 // total READRES commands
	rrBursts int64 // total READRES data bursts
	gwMin    int64 // lower bound on GWRITE bursts (each chunk loaded once)
}

// expectedTotals mirrors the workload decomposition (paper §4.3.1, Fig 6)
// from first principles: M input vectors in groups of GlobalBufs, N
// outputs in groups of one lane per bank, K in chunks bounded by the
// global-buffer capacity (or one row activation at COMP granularity when
// the unit count cannot occupy every channel). It deliberately does not
// call into codegen's scheduler, so scheduler bugs that drop or duplicate
// work show up as a mismatch.
func expectedTotals(w codegen.Workload, cfg pim.Config, opts codegen.Opts) totals {
	nb := cfg.GlobalBufs
	lanes := cfg.LanesPerChannel()
	elemsPerColIO := cfg.ColumnIOBytes / 2
	kPerAct := cfg.ColumnIOsPerRow * elemsPerColIO
	kChunkLen := cfg.BufElems()
	if opts.Granularity == codegen.GranComp && w.K > kPerAct &&
		ceilDiv(w.M, nb)*ceilDiv(w.N, lanes) < cfg.Channels {
		kChunkLen = kPerAct
	}
	if kChunkLen > w.K {
		kChunkLen = w.K
	}

	var nKChunks, colIOsPerVec, gwPerVec int64
	for ks := 0; ks < w.K; ks += kChunkLen {
		kl := kChunkLen
		if ks+kl > w.K {
			kl = w.K - ks
		}
		nKChunks++
		colIOsPerVec += int64(ceilDiv(kl, elemsPerColIO))
		gwPerVec += int64(ceilDiv(kl*2, cfg.BurstBytes))
	}

	nOutGroups := ceilDiv(w.N, lanes)
	rrBurstsOf := func(outLanes int) int64 {
		b := ceilDiv(outLanes*4, cfg.BurstBytes)
		if b < 1 {
			b = 1
		}
		return int64(b)
	}
	var perVecRRBursts int64
	for og := 0; og < nOutGroups; og++ {
		ol := lanes
		if (og+1)*lanes > w.N {
			ol = w.N - og*lanes
		}
		perVecRRBursts += rrBurstsOf(ol)
	}

	return totals{
		colIOs:   int64(w.M) * int64(nOutGroups) * colIOsPerVec,
		readRes:  int64(w.M) * int64(nOutGroups) * nKChunks,
		rrBursts: int64(w.M) * nKChunks * perVecRRBursts,
		gwMin:    int64(w.M) * gwPerVec,
	}
}

// Workload lints one PIM workload's command stream as codegen.Stream
// produces it, with no trace built: the per-channel protocol rules plus
// TR-COVER, whose required volumes come from an independent oracle.
// Grouped workloads verify one group's stream; the groups are identical.
func Workload(w codegen.Workload, cfg pim.Config, opts codegen.Opts) []Diagnostic {
	w.Groups = 0
	l := &linter{cfg: cfg, seen: map[int]bool{}}
	if err := codegen.Stream(w, cfg, opts, l); err != nil {
		return []Diagnostic{{Rule: RuleTraceCover, Channel: -1, Index: -1,
			Msg: fmt.Sprintf("trace generation failed: %v", err)}}
	}
	diags, got := l.finish(), l.got
	want := expectedTotals(w, cfg, opts)
	cover := func(msg string) {
		diags = append(diags, Diagnostic{Rule: RuleTraceCover, Channel: -1, Index: -1, Msg: msg})
	}
	if got.ColIOs != want.colIOs {
		cover(fmt.Sprintf("trace streams %d column I/Os, workload %+v needs %d", got.ColIOs, w, want.colIOs))
	}
	if got.ReadRes != want.readRes {
		cover(fmt.Sprintf("trace drains %d READRES commands, workload %+v needs %d", got.ReadRes, w, want.readRes))
	}
	if got.RRBursts != want.rrBursts {
		cover(fmt.Sprintf("trace drains %d result bursts, workload %+v needs %d", got.RRBursts, w, want.rrBursts))
	}
	if got.GWBursts < want.gwMin {
		cover(fmt.Sprintf("trace writes %d input bursts, workload %+v needs at least %d", got.GWBursts, w, want.gwMin))
	}
	return diags
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
