package main

import (
	"fmt"
	"math"
	"strings"
)

// component is one row of an attribution table: a layer's self time
// per operation, in ms.
type component struct {
	name string
	v    []float64
}

// analyzeSpans turns the traced phase's spans into the per-layer
// metrics and the attribution report. A layer's self time is its span
// minus the child spans it waited on; replayed spans decompose a layer
// that the live spans cannot open.
func analyzeSpans(b *bench) {
	byReq := map[int64]map[string][]span{}
	unattributed := map[string]int{}
	for _, s := range b.tr.all() {
		if s.Req < 0 {
			unattributed[s.Name]++
			continue
		}
		m := byReq[s.Req]
		if m == nil {
			m = map[string][]span{}
			byReq[s.Req] = m
		}
		m[s.Name] = append(m[s.Name], s)
	}

	var (
		readClient, readTransport, readSelf, run  []float64
		runShared, pnnSelf, execSelf, prunePerReq []float64
		lookupsPerReq, hitsUS, adapt              []float64
		batchClient, batchTransport, batchSelf    []float64
		batchRun                                  []float64
		batchItems, batchGroups                   int
		writeSelf                                 []float64
		observe, add, update, updateRest, walUS   []float64
		obsClient, obsTransport, obsSelf          []float64
		legMS, gatherSelf, scatterKB, legs        []float64
	)
	dur := func(ss []span) float64 {
		t := 0.0
		for _, s := range ss {
			t += ms(s.dur())
		}
		return t
	}
	for _, m := range byReq {
		for _, s := range m[spanAdapt] {
			adapt = append(adapt, ms(s.dur()))
		}
		for _, s := range m[spanSamplerHit] {
			hitsUS = append(hitsUS, us(s.dur()))
		}
		h := m[spanHandler]
		switch {
		case len(m[spanClientRead]) == 1 && len(h) == 1 && len(m[spanRun]) == 1:
			c, r := ms(m[spanClientRead][0].dur()), ms(m[spanRun][0].dur())
			readClient = append(readClient, c)
			readTransport = append(readTransport, c-ms(h[0].dur()))
			readSelf = append(readSelf, ms(h[0].dur())-r)
			run = append(run, r)
			if rs := m[spanRunShared]; len(rs) == 1 {
				shared := ms(rs[0].dur())
				p, l := dur(m[spanPrune]), dur(m[spanSamplerHit])+dur(m[spanAdapt])
				runShared = append(runShared, shared)
				pnnSelf = append(pnnSelf, r-shared)
				execSelf = append(execSelf, shared-p-l)
				prunePerReq = append(prunePerReq, p*1000)
				lookupsPerReq = append(lookupsPerReq, l)
			}
			if pl := m[spanPeerScatter]; len(pl) > 0 {
				slowest, bytes := 0.0, int64(0)
				for _, s := range pl {
					slowest = math.Max(slowest, ms(s.dur()))
					bytes += s.Bytes
				}
				legMS = append(legMS, slowest)
				gatherSelf = append(gatherSelf, r-slowest)
				scatterKB = append(scatterKB, float64(bytes)/1024)
				legs = append(legs, float64(len(pl)))
			}
		case len(m[spanClientBatch]) == 1 && len(h) == 1 && len(m[spanBatch]) == 1:
			c, r := ms(m[spanClientBatch][0].dur()), m[spanBatch][0]
			batchClient = append(batchClient, c)
			batchTransport = append(batchTransport, c-ms(h[0].dur()))
			batchSelf = append(batchSelf, ms(h[0].dur())-ms(r.dur()))
			batchRun = append(batchRun, ms(r.dur()))
			batchItems += r.Items
			batchGroups += r.Groups
		case len(m[spanClientWrite]) == 1 && len(h) == 1:
			inner := m[spanObserve]
			if len(inner) == 0 {
				inner = m[spanAdd]
			}
			if len(inner) != 1 {
				continue
			}
			c, w := ms(m[spanClientWrite][0].dur()), ms(inner[0].dur())
			writeSelf = append(writeSelf, ms(h[0].dur())-w)
			if inner[0].Name == spanObserve {
				obsClient = append(obsClient, c)
				obsTransport = append(obsTransport, c-ms(h[0].dur()))
				obsSelf = append(obsSelf, ms(h[0].dur())-w)
				observe = append(observe, w)
				if u := m[spanUpdate]; len(u) == 1 {
					update = append(update, ms(u[0].dur()))
					updateRest = append(updateRest, w-ms(u[0].dur()))
				}
			} else {
				add = append(add, w)
			}
			for _, s := range m[spanWALAppend] {
				walUS = append(walUS, us(s.dur()))
			}
		}
	}

	p50 := func(v []float64) float64 { return orZero(quantile(v, 0.5)) }
	// tail reports a high percentile only where the traced phase leaves
	// at least ten samples beyond it, as for the end-to-end rows.
	tail := func(v []float64, q float64) float64 {
		if !supported(len(v), q) {
			return 0
		}
		return quantile(v, q)
	}
	L := b.layer
	L["server.read_self_ms_p50"] = p50(readSelf)
	L["server.write_self_ms_p50"] = p50(writeSelf)
	L["pnn.run_ms_p50"] = p50(run)
	L["pnn.run_ms_p99"] = tail(run, 0.99)
	L["pnn.batch_ms_p50"] = p50(batchRun)
	L["pnn.groups_per_batch_item"] = ratio(float64(batchGroups), float64(batchItems))
	L["pnn.observe_ms_p50"] = p50(observe)
	L["pnn.observe_ms_p90"] = tail(observe, 0.9)
	L["pnn.add_ms_p50"] = p50(add)
	L["shard.run_shared_ms_p50"] = p50(runShared)
	L["shard.exec_self_ms_p50"] = p50(execSelf)
	L["ustree.prune_us_p50"] = p50(prunePerReq)
	L["ustree.update_ms_p50"] = p50(update)
	L["query.sampler_hit_us_p50"] = p50(hitsUS)
	L["inference.adapt_ms_p50"] = p50(adapt)
	L["store.wal_append_us_p50"] = p50(walUS)
	if b.workload == "cluster-read" {
		L["cluster.router_run_ms_p50"] = p50(run)
		L["cluster.peer_scatter_ms_p50"] = p50(legMS)
		L["cluster.gather_self_ms_p50"] = p50(gatherSelf)
		L["cluster.scatter_kb_per_read"] = mean(scatterKB)
		L["cluster.legs_per_read"] = mean(legs)
	}

	w := &b.report
	fmt.Fprintf(w, "# Per-layer report: %s, seed %d\n\n", b.workload, b.seed)
	fmt.Fprintf(w, "Facts: %v\n\n", b.facts)
	b.overheadTable()
	if len(readClient) > 0 {
		comps := []component{{"client + loopback transport", readTransport}, {"server (decode, validate, encode)", readSelf}}
		switch {
		case len(legMS) > 0:
			comps = append(comps,
				component{"cluster: router gather (RPC wait, inflate, decode, replay)", gatherSelf},
				component{"cluster: slowest peer /internal/scatter leg", legMS})
		case len(runShared) > 0:
			comps = append(comps,
				component{"pnn: facade (Run minus replayed RunShared)", pnnSelf},
				component{"shard: world draw, fold, merge (RunShared minus prune and lookups)", execSelf},
				component{"ustree: PruneWindow, summed over shards", scale(prunePerReq, 1e-3)},
				component{"query: sampler cache lookups", lookupsPerReq})
		default:
			comps = append(comps, component{"pnn: Backend.Run", run})
		}
		attribution(w, "One-shot reads", readClient, comps)
		if len(runShared) > 0 {
			a, r := quantile(runShared, 0.5), quantile(run, 0.5)
			fmt.Fprintf(w, "Replayed shard.run_shared_ms_p50 %.3f ms vs live pnn.run_ms_p50 %.3f ms: ratio %.3f (%s a tenth).\n\n",
				a, r, a/r, map[bool]string{true: "within", false: "NOT within"}[math.Abs(a/r-1) <= 0.1])
		}
	}
	if len(batchClient) > 0 {
		attribution(w, "Batches (/v1/batch, 8 items, share_worlds)", batchClient, []component{
			{"client + loopback transport", batchTransport},
			{"server (decode, validate, encode)", batchSelf},
			{"pnn: RunBatchStats", batchRun},
		})
	}
	if len(update) > 0 {
		attribution(w, "Observes (/v1/observe)", obsClient, []component{
			{"client + loopback transport", obsTransport},
			{"server (decode, validate, encode)", obsSelf},
			{"ustree: WithUpdatedObject (replayed on the pre-write tree)", update},
			{"pnn/store: rest of Observe (apply, WAL, publish, touch tests)", updateRest},
		})
		u, o := quantile(update, 0.5), quantile(observe, 0.5)
		fmt.Fprintf(w, "ustree.update_ms_p50 %.2f ms is %.1f%% of pnn.observe_ms_p50 %.2f ms. "+
			"WAL append (replayed) median %.1f us; AddObject median %.2f ms over %d adds.\n\n",
			u, 100*u/o, o, quantile(walUS, 0.5), quantile(add, 0.5), len(add))
	}
	fmt.Fprintf(w, "## Per-layer metrics\n\n"+
		"pnn.run_ms_p99 rests on %d Backend.Run spans and pnn.observe_ms_p90 on %d Observe spans; "+
		"each reads 0 unless ten of them lie beyond the percentile.\n\n", len(run), len(observe))
	fmt.Fprintf(w, "| metric | value |\n|---|---|\n")
	for _, m := range b.layerMetrics() {
		fmt.Fprintf(w, "| %s | %.4f %s |\n", m.name, L[m.name], m.unit)
	}
	if len(unattributed) > 0 {
		fmt.Fprintf(w, "\nSpans without a request (probes, set-up traffic): %v\n", unattributed)
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// attribution writes one table: each layer's self-time median and its
// share of the end-to-end median.
func attribution(w *strings.Builder, title string, e2e []float64, comps []component) {
	em := quantile(e2e, 0.5)
	fmt.Fprintf(w, "## %s (%d traced operations)\n\n", title, len(e2e))
	fmt.Fprintf(w, "End-to-end client latency: median %.3f ms.\n\n", em)
	w.WriteString("| layer (self time) | n | median ms | share of e2e median |\n|---|---|---|---|\n")
	for _, c := range comps {
		cm := quantile(c.v, 0.5)
		fmt.Fprintf(w, "| %s | %d | %.3f | %.1f%% |\n", c.name, len(c.v), cm, 100*cm/em)
	}
	w.WriteString("\n")
}

// overheadTable compares the traced phase's end-to-end figures with the
// untraced phase's of the same run.
func (b *bench) overheadTable() {
	w := &b.report
	w.WriteString("## Tracing overhead (traced minus untraced phase)\n\n| metric | untraced | traced | overhead |\n|---|---|---|---|\n")
	for _, r := range b.rows {
		if r.Phase != "untraced" {
			continue
		}
		t, ok := b.value("traced", r.Name)
		if !ok {
			continue
		}
		line := fmt.Sprintf("| %s | %.4f %s | %.4f %s | %+.4f %s |\n", r.Name, r.Value, r.Unit, t, r.Unit, t-r.Value, r.Unit)
		w.WriteString(line)
		fmt.Printf("# trace overhead %s", line[1:len(line)-2]+"\n")
	}
	w.WriteString("\n")
}
