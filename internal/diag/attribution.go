package diag

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tiscc/internal/telemetry"
)

// ChannelStat is one row of the error-budget attribution table: the fire
// statistics of one (gate class, fault kind) channel split by shot outcome.
type ChannelStat struct {
	Class string `json:"class"`
	Kind  string `json:"kind"`
	Sites int    `json:"sites"` // fault sites of this channel in the schedule

	FiredOK   uint64 `json:"fired_ok"`   // total fires on surviving shots
	FiredFail uint64 `json:"fired_fail"` // total fires on failing shots

	RateOK   float64 `json:"rate_ok"`   // mean fires per surviving shot
	RateFail float64 `json:"rate_fail"` // mean fires per failing shot

	// OddsRatio compares the channel's fire rate on failing vs surviving
	// shots with Haldane–Anscombe +0.5 smoothing so it stays finite at zero
	// counts; ≫ 1 marks the channels that drive logical failure.
	OddsRatio float64 `json:"odds_ratio"`

	// PLContribution is the channel's share of the logical error rate:
	// each failing shot is split across the channels that fired on it in
	// proportion to their fire counts, so the column sums to p_L exactly.
	PLContribution float64 `json:"p_l_contribution"`
}

// AttributionReport is the error-budget attribution of one estimation run.
type AttributionReport struct {
	Shots    uint64        `json:"shots"`
	Failures uint64        `json:"failures"`
	PL       float64       `json:"p_l"`
	Channels []ChannelStat `json:"channels"`
}

// Attribution builds the error-budget report from everything observed so
// far. Only call at quiescence (after EstimateLogicalError returns).
func (c *Collector) Attribution() *AttributionReport {
	m := c.merged()
	r := &AttributionReport{Shots: m.shotsOK + m.shotsFail, Failures: m.shotsFail}
	if r.Shots > 0 {
		r.PL = float64(r.Failures) / float64(r.Shots)
	}
	ok := float64(m.shotsOK)
	fail := float64(m.shotsFail)
	for i, ch := range c.chans {
		cs := ChannelStat{
			Class:     ch.class.String(),
			Kind:      ch.kind.String(),
			Sites:     ch.sites,
			FiredOK:   m.chanOK[i],
			FiredFail: m.chanFail[i],
		}
		if ok > 0 {
			cs.RateOK = float64(cs.FiredOK) / ok
		}
		if fail > 0 {
			cs.RateFail = float64(cs.FiredFail) / fail
		}
		cs.OddsRatio = ((float64(cs.FiredFail) + 0.5) / (fail + 0.5)) /
			((float64(cs.FiredOK) + 0.5) / (ok + 0.5))
		if r.Shots > 0 {
			cs.PLContribution = float64(m.plUnits[i]) / attribUnit / float64(r.Shots)
		}
		r.Channels = append(r.Channels, cs)
	}
	sort.Slice(r.Channels, func(i, j int) bool {
		a, b := &r.Channels[i], &r.Channels[j]
		if a.PLContribution != b.PLContribution {
			return a.PLContribution > b.PLContribution
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Kind < b.Kind
	})
	return r
}

// Table renders the report as a fixed-width text table, channels sorted by
// descending p_L contribution, with a totals row that must reproduce p_L.
func (r *AttributionReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "error budget: %d shots, %d failures, p_L = %.4e\n",
		r.Shots, r.Failures, r.PL)
	fmt.Fprintf(&b, "%-20s %7s %11s %11s %9s %9s %7s %12s\n",
		"channel", "sites", "fired_ok", "fired_fail", "rate_ok", "rate_fail", "odds", "p_L_contrib")
	var total float64
	for _, cs := range r.Channels {
		total += cs.PLContribution
		fmt.Fprintf(&b, "%-20s %7d %11d %11d %9.4f %9.4f %7.2f %12.4e\n",
			cs.Class+"/"+cs.Kind, cs.Sites, cs.FiredOK, cs.FiredFail,
			cs.RateOK, cs.RateFail, cs.OddsRatio, cs.PLContribution)
	}
	fmt.Fprintf(&b, "%-20s %7s %11s %11s %9s %9s %7s %12.4e\n",
		"total", "", "", "", "", "", "", total)
	return b.String()
}

// Snapshot renders the report as an error_budget telemetry snapshot so the
// existing manifest/Prometheus machinery exposes it: per-channel fired_ok /
// fired_fail counters plus the p_L contribution scaled to parts-per-1e9
// (counters are integers). The schema is generated per run — only channels
// present in the schedule appear.
func (r *AttributionReport) Snapshot() *telemetry.Snapshot {
	sch := &telemetry.Schema{
		Component: "error_budget",
		Counters:  []string{"shots", "failures"},
	}
	// Schema order must be name-sorted, not contribution-sorted: points of
	// one sweep share the channel set, and identical schemas are what lets
	// the manifest merge per-point snapshots into the aggregate Prometheus
	// view.
	names := make([]string, 0, len(r.Channels))
	for _, cs := range r.Channels {
		names = append(names, cs.Class+"_"+cs.Kind)
	}
	sort.Strings(names)
	for _, base := range names {
		sch.Counters = append(sch.Counters,
			base+"_fired_ok", base+"_fired_fail", base+"_p_l_contribution_e9")
	}
	snap := telemetry.NewSnapshot(sch)
	snap.SetCounter("shots", r.Shots)
	snap.SetCounter("failures", r.Failures)
	for _, cs := range r.Channels {
		base := cs.Class + "_" + cs.Kind
		snap.SetCounter(base+"_fired_ok", cs.FiredOK)
		snap.SetCounter(base+"_fired_fail", cs.FiredFail)
		snap.SetCounter(base+"_p_l_contribution_e9", uint64(math.Round(cs.PLContribution*1e9)))
	}
	return snap
}
