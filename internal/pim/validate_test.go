package pim_test

import (
	"testing"

	"pimflow/internal/pim"
	"pimflow/internal/verify"
)

// Hand-built traces are checked by the verify package's command-stream
// linter; these cases pin the structural invariants every generator must
// uphold on the trace types defined here.

func TestTraceValidateAccepts(t *testing.T) {
	tr := &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0, Commands: []pim.Command{
		{Kind: pim.KindGWrite, Bursts: 4},
		{Kind: pim.KindGAct, NewRow: true},
		{Kind: pim.KindComp, Cols: 8},
		{Kind: pim.KindReadRes, Bursts: 2},
	}}}}
	if diags := verify.Trace(tr, pim.DefaultConfig()); len(diags) != 0 {
		t.Fatal(verify.AsError(diags))
	}
}

func TestTraceValidateRejects(t *testing.T) {
	cfg := pim.DefaultConfig()
	cases := map[string]struct {
		rule string
		tr   *pim.Trace
	}{
		"empty": {verify.RuleTraceEmpty, &pim.Trace{}},
		"bad channel": {verify.RuleTraceChannel, &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 99, Commands: []pim.Command{
			{Kind: pim.KindGWrite, Bursts: 1},
		}}}}},
		"dup channel": {verify.RuleTraceChannelDup, &pim.Trace{Channels: []pim.ChannelTrace{
			{Channel: 0, Commands: []pim.Command{{Kind: pim.KindGWrite, Bursts: 1}}},
			{Channel: 0, Commands: []pim.Command{{Kind: pim.KindGWrite, Bursts: 1}}},
		}}},
		"comp before gact": {verify.RuleTraceCompNoAct, &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0, Commands: []pim.Command{
			{Kind: pim.KindGWrite, Bursts: 1},
			{Kind: pim.KindComp, Cols: 1},
		}}}}},
		"comp before gwrite": {verify.RuleTraceCompNoBuf, &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0, Commands: []pim.Command{
			{Kind: pim.KindGAct},
			{Kind: pim.KindComp, Cols: 1},
		}}}}},
		"comp too wide": {verify.RuleTraceCompCols, &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0, Commands: []pim.Command{
			{Kind: pim.KindGWrite, Bursts: 1},
			{Kind: pim.KindGAct},
			{Kind: pim.KindComp, Cols: 999},
		}}}}},
		"zero-column comp": {verify.RuleTraceCompCols, &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0, Commands: []pim.Command{
			{Kind: pim.KindGWrite, Bursts: 1},
			{Kind: pim.KindGAct},
			{Kind: pim.KindComp, Cols: 0},
			{Kind: pim.KindReadRes, Bursts: 1},
		}}}}},
		"negative channel": {verify.RuleTraceChannel, &pim.Trace{Channels: []pim.ChannelTrace{{Channel: -1, Commands: []pim.Command{
			{Kind: pim.KindGWrite, Bursts: 1},
		}}}}},
		"zero-burst gwrite": {verify.RuleTraceBursts, &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0, Commands: []pim.Command{
			{Kind: pim.KindGWrite, Bursts: 0},
		}}}}},
		"zero-burst readres": {verify.RuleTraceBursts, &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0, Commands: []pim.Command{
			{Kind: pim.KindGWrite, Bursts: 1},
			{Kind: pim.KindGAct},
			{Kind: pim.KindComp, Cols: 1},
			{Kind: pim.KindReadRes, Bursts: 0},
		}}}}},
	}
	for name, c := range cases {
		diags := verify.Trace(c.tr, cfg)
		found := false
		for _, d := range diags {
			found = found || d.Rule == c.rule
		}
		if !found {
			t.Errorf("%s: no %s diagnostic in %v", name, c.rule, diags)
		}
	}
}
