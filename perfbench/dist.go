package main

import (
	"context"
	"fmt"

	"repro/internal/division"
	"repro/internal/netexchange"
	"repro/internal/obs"
	"repro/internal/workload"
)

// dist is the dist-skewed workload: one op is one quotient-partitioned and one
// divisor-partitioned netexchange.Divide, both bit-vector filtered and
// pipelined, on a two-worker local cluster over loopback TCP, on a noisy
// instance whose course choice is Zipf-1.5 skewed.
type dist struct {
	cfg workload.Config

	inst    *workload.Instance
	cluster *netexchange.Cluster

	generateS, loadS []float64

	strategyMS  map[division.PartitionStrategy][]float64
	wire        []float64
	dividendKB  []float64
	filterKB    []float64
	frames      []float64
	roundTrips  []float64
	dropFrac    []float64
	workerSkew  []float64
	stalls0     int64
	stalls1     int64
	opsMeasured int
}

var distStrategies = []division.PartitionStrategy{division.QuotientPartitioning, division.DivisorPartitioning}

func newDist(tiny bool) *dist {
	cfg := workload.Config{
		DivisorTuples:      400,
		QuotientCandidates: 400,
		FullFraction:       0.5,
		MatchFraction:      0.8,
		NoisePerCandidate:  5,
		CourseZipfS:        1.5,
		Shuffle:            true,
	}
	if tiny {
		cfg.DivisorTuples, cfg.QuotientCandidates = 20, 20
	}
	return &dist{cfg: cfg}
}

func (w *dist) setup(seed int64) error {
	cfg := w.cfg
	cfg.Seed = seed
	var inst *workload.Instance
	d, err := diag(nil, "workload", "workload.Generate", func() (err error) {
		inst, err = generate(cfg)
		return err
	})
	if err != nil {
		return err
	}
	w.generateS = append(w.generateS, d.Seconds())
	w.inst = inst
	d, err = diag(nil, "netexchange", "netexchange.StartLocalCluster", func() (err error) {
		w.cluster, err = netexchange.StartLocalCluster(2)
		return err
	})
	if err != nil {
		return err
	}
	w.loadS = append(w.loadS, d.Seconds())
	w.strategyMS = make(map[division.PartitionStrategy][]float64)
	// One untimed op opens both links' buffers and warms the code paths.
	return w.op(&opCtx{op: -1}, false)
}

func (w *dist) close() {
	if w.cluster != nil {
		w.cluster.Close()
		w.cluster = nil
	}
}

func (w *dist) run(r *runner) {
	w.stalls0 = obs.Default.Get("net.pipeline.stalls")
	r.closedLoop(func(c *opCtx) error {
		err := w.op(c, true)
		if err != nil && w.cluster != nil {
			// A failed exchange leaves its links unusable: start a fresh
			// cluster, untimed, so the run goes on.
			w.cluster.Close()
			cl, cerr := netexchange.StartLocalCluster(2)
			if cerr != nil {
				cl = nil // every later op fails fast with "no cluster"
			}
			w.cluster = cl
		}
		return err
	})
	w.stalls1 = obs.Default.Get("net.pipeline.stalls")
}

// op runs both strategies and checks both quotients.
func (w *dist) op(c *opCtx, keep bool) error {
	if w.cluster == nil {
		return fmt.Errorf("no cluster")
	}
	var wire, dividendB, filterB, frames, rounds, filtered float64
	worstSkew := 0.0
	perStrategy := make([]float64, len(distStrategies))
	for i, strategy := range distStrategies {
		sp := memSpec(w.inst)
		var res *netexchange.Result
		before := c.wall
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		err := c.call("netexchange", "netexchange.Divide", func() (err error) {
			res, err = netexchange.Divide(ctx, sp, netexchange.Config{
				Strategy:        strategy,
				BitVectorFilter: true,
				Ship:            netexchange.ShipPipelined,
			}, w.cluster.Conns())
			return err
		})
		cancel()
		if err != nil {
			return fmt.Errorf("%v: %w", strategy, err)
		}
		perStrategy[i] = ms(c.wall - before)
		if err := checkIDs(strategy.String(), firstColumn(sp.QuotientSchema(), res.Quotient), w.inst.QuotientIDs); err != nil {
			return err
		}
		for _, l := range res.Links {
			wire += float64(l.BytesOut + l.BytesIn)
			frames += float64(l.FramesOut + l.FramesIn)
			rounds += float64(l.RoundTrips)
		}
		dividendB += float64(res.DividendBytes)
		filterB += float64(res.FilterBytes)
		filtered += float64(res.Network.TuplesFiltered)
		shares := make([]int64, len(res.Workers))
		for j, ws := range res.Workers {
			shares[j] = ws.DividendTuples
		}
		worstSkew = max(worstSkew, skew(shares))
	}
	if !keep {
		return nil
	}
	w.opsMeasured++
	if c.tr == nil {
		for i, strategy := range distStrategies {
			w.strategyMS[strategy] = append(w.strategyMS[strategy], perStrategy[i])
		}
	}
	w.wire = append(w.wire, wire/1e6)
	w.dividendKB = append(w.dividendKB, dividendB/1024)
	w.filterKB = append(w.filterKB, filterB/1024)
	w.frames = append(w.frames, frames)
	w.roundTrips = append(w.roundTrips, rounds)
	w.dropFrac = append(w.dropFrac, filtered/float64(len(distStrategies)*len(w.inst.Dividend)))
	w.workerSkew = append(w.workerSkew, worstSkew)
	return nil
}

func (w *dist) report(r *runner, m map[string]float64) error {
	priced, err := pricedSerial(w.inst)
	if err != nil {
		return err
	}
	m["priced_cost_ms"] = priced
	m["workload.generate_s"] = median(w.generateS)
	m["workload.load_s"] = median(w.loadS)
	m["netexchange.quotient_ms_p50"] = median(w.strategyMS[division.QuotientPartitioning])
	m["netexchange.divisor_ms_p50"] = median(w.strategyMS[division.DivisorPartitioning])
	m["netexchange.wire_mb_per_op"] = median(w.wire)
	m["netexchange.dividend_kb_per_op"] = median(w.dividendKB)
	m["netexchange.filter_kb_per_op"] = median(w.filterKB)
	m["netexchange.frames_per_op"] = median(w.frames)
	m["netexchange.round_trips_per_op"] = median(w.roundTrips)
	m["netexchange.filter_drop_frac"] = median(w.dropFrac)
	m["netexchange.worker_skew"] = median(w.workerSkew)
	if w.opsMeasured > 0 {
		m["netexchange.pipeline_stalls_per_op"] = float64(w.stalls1-w.stalls0) / float64(w.opsMeasured)
	}
	return nil
}
