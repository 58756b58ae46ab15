package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one invocation: a workload, a seed, a duration.
type runConfig struct {
	wl        workload
	sc        scale
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	workDir   string // scratch of this run; the caller removes it
	outDir    string
	log       io.Writer
}

func (c *runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "bench: "+format+"\n", args...)
}

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // timings: samples behind the figure
}

// report is the outcome of one run.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Scale     string           `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Reasons   []string         `json:"reasons,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Also holds, in an untraced run, the per-layer figures the run has
	// anyway: the load's own speed and the boot time. They are printed
	// beside the end-to-end metrics and are not part of the result line.
	Also map[string]value `json:"also,omitempty"`
	Env  environment      `json:"env"`
}

// runWorkload is one whole run: build and save once, then boot the
// servers several times over; the first boot is checked against the
// reference, every boot is warmed up and measured for its share of the
// run's seconds, and in a traced run the ladder follows.
//
// The boots are the run's samples. A whole process tree on two shared
// cores settles into a faster or a slower arrangement for as long as it
// lives, so one long measurement of one tree is one sample however many
// requests it holds; each speed figure is the median over the boots, and
// lsiserve.boot_s has as many samples as there are boots at no extra cost.
func runWorkload(ctx context.Context, cfg *runConfig) (*report, error) {
	wl, sc := cfg.wl, cfg.sc
	rep := &report{Workload: wl.name, Seed: cfg.seed, Scale: sc.name, Seconds: cfg.seconds,
		Trace: cfg.trace, Metrics: map[string]value{}, Env: stampEnvironment()}

	in, b, err := build(cfg, cfg.workDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.ix.Close() // nothing was appended to it: there is no state to lose
	nextText := in.textSource(wl)

	// Per-layer figures are collected here as a traced run goes along.
	layer := map[string]value{}
	for _, d := range perLayer {
		layer[d.name] = value{Unit: d.unit}
	}
	set := func(name string, v float64, samples int) {
		cur, ok := layer[name]
		if !ok {
			panic("unlisted per-layer metric " + name)
		}
		cur.Value, cur.Samples = v, samples
		layer[name] = cur
	}

	span := time.Duration(cfg.seconds / float64(sc.boots) * float64(time.Second))
	var (
		chk                 *checked
		total               tally
		loads               []*loadOutcome
		setupS, rss         float64
		openS, qps, p50, pT []float64
		samples             int
		tail                = 0.99
	)
	// Boot 0 is the set-up's and the answer check's; boots 1..n are
	// measured, each from the same cold start.
	for i := 0; i <= sc.boots; i++ {
		sys, err := boot(ctx, cfg, b, filepath.Join(cfg.workDir, fmt.Sprintf("boot-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", i, err)
		}
		// One function per boot, so that its processes are stopped on
		// every way out of it.
		err = func() error {
			defer sys.stop()
			for _, p := range sys.nodes {
				openS = append(openS, p.bootS)
			}
			if i == 0 {
				setupS = b.genS + b.buildS + b.saveS + b.exportS + sys.bootS
				cfg.logf("%s set-up: gen %.2fs build %.2fs save %.2fs export %.2fs boot %.2fs",
					wl.name, b.genS, b.buildS, b.saveS, b.exportS, sys.bootS)
				t := time.Now()
				if chk, err = check(ctx, cfg, in, sys, nextText); err != nil {
					return fmt.Errorf("answer check: %w", err)
				}
				cfg.logf("%s checked %d answers in %.1fs, %d wrong, recall@%d %.4f", wl.name,
					chk.tally.attempted, time.Since(t).Seconds(), chk.tally.failed, topN, chk.recall)
				total.add(chk.tally)
				return nil
			}
			ld, err := runLoad(ctx, cfg, in, sys, chk, nextText, span)
			if err != nil {
				return err
			}
			loads = append(loads, ld)
			total.add(ld.tally)
			var mb float64
			for _, p := range sys.procs() {
				m, err := p.rssPeakMB()
				if err != nil {
					return err
				}
				mb += m
			}
			rss = max(rss, mb)
			if cfg.trace && i == sc.boots {
				// The ladder's loopback rungs need live servers: the last boot's.
				if err := ladder(ctx, cfg, in, sys, chk, nextText, set); err != nil {
					return fmt.Errorf("ladder: %w", err)
				}
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}

	// Each boot's own figures, then the median boot. The tail percentile
	// is the p99 where every boot has the samples for it, and the same
	// lower one for all boots where any has not.
	for _, ld := range loads {
		samples += len(ld.search.samples)
		tail = min(tail, pickTail(len(ld.search.samples), 0.99))
	}
	for _, ld := range loads {
		lat := make([]float64, 0, len(ld.search.samples))
		ok := 0
		for _, s := range ld.search.samples {
			lat = append(lat, s.latMS)
			if s.ok {
				ok++
			}
		}
		sort.Float64s(lat)
		qps = append(qps, float64(ok)/ld.span.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		pT = append(pT, quantile(lat, tail))
	}
	cfg.logf("%s boots: open s %.3f, qps %.0f, p50 ms %.3f, p%g ms %.3f", wl.name, openS, qps, p50, tail*100, pT)
	if tail < 0.99 {
		cfg.logf("%s: too few samples a boot for a p99 (%d in all): bench.search_p99_ms is the p%g", wl.name, samples, tail*100)
	}
	okShare := 1.0
	if total.attempted > 0 {
		okShare = 1 - float64(total.failed)/float64(total.attempted)
	}

	rep.Attempted, rep.Failed, rep.Reasons = total.attempted, total.failed, total.reasons
	wantRecall := 1.0
	if wl.tiered {
		wantRecall = minTieredRecall
	}
	rep.Correct = total.failed == 0 && chk.recall >= wantRecall
	if chk.recall < wantRecall {
		rep.Reasons = append(rep.Reasons, fmt.Sprintf("recall_at_10 = %v, below %v", chk.recall, wantRecall))
	}

	speed := map[string]value{
		"bench.search_qps":    {Value: median(qps), Unit: "1/s", Samples: samples},
		"bench.search_p50_ms": {Value: median(p50), Unit: "ms", Samples: samples},
		"bench.search_p99_ms": {Value: median(pT), Unit: "ms", Samples: samples},
		"lsiserve.boot_s":     {Value: median(openS), Unit: "s", Samples: len(openS)},
	}
	if !cfg.trace {
		rep.Metrics = map[string]value{
			"setup_s":      {Value: setupS, Unit: "s", Samples: 1},
			"recall_at_10": {Value: chk.recall, Unit: "ratio", Samples: chk.n},
			"ok_share":     {Value: okShare, Unit: "ratio", Samples: total.attempted},
			"rss_peak_mb":  {Value: rss, Unit: "MB"},
		}
		rep.Also = speed
		return rep, nil
	}

	// Per-layer figures: what the servers counted around the spans, beside
	// what the ladder replay set.
	set("retrieval.build_s", b.buildS, 1)
	set("retrieval.save_s", b.saveS, 1)
	set("cluster.export_s", b.exportS, 1)
	if wl.shards > 0 {
		set("shard.savedir_s", b.saveS, 1)
	}
	for name, v := range speed {
		set(name, v.Value, v.Samples)
	}
	set("bench.samples", float64(samples), 0)
	set("bench.failed_share", 1-okShare, total.attempted)
	counted(set, wl, loads)
	if wl.ingest {
		var acks []float64
		var docs, sent, late int
		for _, ld := range loads {
			acks = append(acks, ld.writer.ackMS...)
			docs, sent, late = docs+ld.ackedDocs, sent+ld.writer.sent, late+ld.writer.late
		}
		sort.Float64s(acks)
		set("ingest.ack_p50_ms", quantile(acks, 0.5), len(acks))
		set("ingest.ack_p99_ms", quantile(acks, pickTail(len(acks), 0.99)), len(acks))
		set("ingest.docs_acked", float64(docs), 0)
		if sent > 0 {
			set("bench.writer_late_share", float64(late)/float64(sent), sent)
		}
	}
	rep.Metrics = layer
	return rep, nil
}

// printReport writes every metric by name with its unit (and the sample
// count behind a timing), then the one-line JSON result the driver reads.
func printReport(w io.Writer, rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d scale %s: %d attempted, %d failed\n",
		rep.Workload, rep.Seed, rep.Scale, rep.Attempted, rep.Failed)
	for _, r := range rep.Reasons {
		fmt.Fprintf(w, "  failure: %s\n", r)
	}
	line := func(n string, v value) {
		fmt.Fprintf(w, "  %-32s %16.6g %-6s", n, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(w, " (%d samples)", v.Samples)
		}
		fmt.Fprintln(w)
	}
	if rep.Trace {
		// By predicted effect, so that a reader sees beside each layer's
		// figures what they are expected to move.
		for _, g := range layerGroups {
			fmt.Fprintf(w, " moves %s; on %s; flat on %s\n", g.moves, g.on, g.flat)
			for _, d := range g.metrics {
				line(d.name, rep.Metrics[d.name])
			}
		}
	} else {
		for _, n := range names {
			line(n, rep.Metrics[n])
		}
		fmt.Fprintln(w, " also (per-layer by name, unbounded: this box does not hold them to a tenth)")
		for _, n := range []string{"bench.search_qps", "bench.search_p50_ms", "bench.search_p99_ms", "lsiserve.boot_s"} {
			line(n, rep.Also[n])
		}
	}
	type outValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]outValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]outValue{}}
	for n, v := range rep.Metrics {
		result.Metrics[n] = outValue{v.Value, v.Unit}
	}
	data, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
