package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/flight"
	"quokka/internal/gcs"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/ops"
	"quokka/internal/spill"
	"quokka/internal/storage"
	"quokka/internal/tpch"
	"quokka/internal/trace"
)

// The layer suite times calls into the exported functions of each layer
// from outside, on batches cut from a freshly generated lineitem/orders
// pair. Every figure is the median over repeated calls of one call's
// duration divided by the rows (keys, KB, transactions ...) it handled.
// The benchmark records a span of its own around every timed call.

const (
	layerSF       = 0.01  // 60k lineitem rows, 15k orders
	layerRows     = 16384 // rows of the lineitem batch the kernels run on
	layerPayload  = 64 << 10
	layerMinCalls = 5
	layerMinTime  = 30 * time.Millisecond
	spillBudget   = 64 << 10 // operator memory budget that forces every spilled variant to spill

	// layerRawBytesPerRow keys the raw (encoding-0) size of one row of the
	// suite's lineitem batch in the suite's output: not a reported metric,
	// but what modelMetrics needs to turn per-row costs into per-byte costs.
	layerRawBytesPerRow = "raw_bytes_per_row"
)

// benchSpan is a span recorded by the benchmark around one of its own
// calls: a timed call into a layer, or one query of a traced pass. Spans
// stay in memory and leave with the run's result (-out).
type benchSpan struct {
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
}

type layerSuite struct {
	rng   *rand.Rand
	out   map[string]float64
	spans []benchSpan
}

// measure calls op until it has run layerMinCalls times and for
// layerMinTime, and stores the median of the durations op reports, divided
// by units, under name. op times its own core so that it can do untimed
// set-up first.
func (ls *layerSuite) measure(name string, units float64, op func() time.Duration) {
	var ds []float64
	begin := time.Now()
	for len(ds) < layerMinCalls || time.Since(begin) < layerMinTime {
		start := time.Now()
		d := op()
		ls.spans = append(ls.spans, benchSpan{name, start, d})
		ds = append(ds, float64(d.Nanoseconds()))
	}
	ls.out[name] = median(ds) / units
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("layer suite: %v", err))
	}
}

// runLayerSuite returns the timed per-layer metrics and the spans behind
// them. seed picks the rows the kernels run on and the synthetic keys and
// payloads.
func runLayerSuite(seed int64) (map[string]float64, []benchSpan) {
	ls := &layerSuite{rng: rand.New(rand.NewSource(seed)), out: map[string]float64{}}

	var data *tpch.Data
	ls.measure("tpch.generate.ns_per_row", 1, func() time.Duration {
		return timed(func() { data = tpch.Generate(layerSF) })
	})
	var generated float64
	for _, t := range data.Tables() {
		generated += float64(t.NumRows())
	}
	ls.out["tpch.generate.ns_per_row"] /= generated

	off := ls.rng.Intn(data.Lineitem.NumRows() - layerRows)
	li, orders := data.Lineitem.Slice(off, off+layerRows), data.Orders
	payload := make([]byte, layerPayload)
	ls.rng.Read(payload)

	ls.batchLayer(li, orders)
	ls.exprAndOps(li, orders)
	ls.spillLayer(li)
	ls.planLayer()
	ls.storageLayer(payload)
	ls.gcsLayer()
	ls.lineageLayer()
	ls.flightLayer(payload)
	ls.smallLayers()
	return ls.out, ls.spans
}

func (ls *layerSuite) batchLayer(li, orders *batch.Batch) {
	rows := float64(li.NumRows())
	var enc []byte
	ls.measure("batch.encode.ns_per_row", rows, func() time.Duration {
		return timed(func() { enc = batch.EncodeCompressed(li) })
	})
	ls.out["batch.encode.bytes_per_row"] = float64(len(enc)) / rows
	ls.out[layerRawBytesPerRow] = float64(batch.RawEncodedSize(li)) / rows
	ls.measure("batch.encode_raw.ns_per_row", rows, func() time.Duration {
		return timed(func() { batch.Encode(li) })
	})
	ls.measure("batch.decode.ns_per_row", rows, func() time.Duration {
		return timed(func() { _, err := batch.Decode(enc); must(err) })
	})
	keep := []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"}
	ls.measure("batch.decode_project.ns_per_row", rows, func() time.Duration {
		return timed(func() { _, _, err := batch.DecodeProject(enc, keep); must(err) })
	})
	liKey := []int{li.Schema.MustIndex("l_orderkey")}
	var hashes []uint64
	ls.measure("batch.hashkeys.ns_per_row", rows, func() time.Duration {
		return timed(func() { hashes = batch.HashKeys(hashes, li, liKey) })
	})
	ls.measure("batch.partition.ns_per_row", rows, func() time.Duration {
		return timed(func() { li.HashPartition([]string{"l_orderkey"}, 4) })
	})

	// Hash table: insert every (unique) order key, then look up the order
	// key of every lineitem row — hits and, past the orders cut, misses.
	encodeKeys := func(b *batch.Batch, keyIdx []int) (keys [][]byte) {
		for r := 0; r < b.NumRows(); r++ {
			keys = append(keys, batch.AppendKey(nil, b, keyIdx, r))
		}
		return keys
	}
	oKey := []int{orders.Schema.MustIndex("o_orderkey")}
	oKeys, oHashes := encodeKeys(orders, oKey), batch.HashKeys(nil, orders, oKey)
	liKeys := encodeKeys(li, liKey)
	var table *batch.HashTable
	ls.measure("batch.hashtab_insert.ns_per_key", float64(len(oKeys)), func() time.Duration {
		table = batch.NewHashTable(0)
		return timed(func() {
			for i, k := range oKeys {
				table.InsertKey(oHashes[i], k)
			}
		})
	})
	ls.measure("batch.hashtab_lookup.ns_per_key", rows, func() time.Duration {
		return timed(func() {
			for i, k := range liKeys {
				table.Find(hashes[i], k)
			}
		})
	})
}

// q6Predicate is TPC-H Q6's WHERE clause; revenue its SELECT arithmetic.
func q6Predicate() expr.Expr {
	return expr.And(
		expr.Ge(expr.C("l_shipdate"), expr.DateLit(expr.DaysOfDate(1994, 1, 1))),
		expr.Lt(expr.C("l_shipdate"), expr.DateLit(expr.DaysOfDate(1995, 1, 1))),
		expr.Between(expr.C("l_discount"), expr.Float64(0.05), expr.Float64(0.07)),
		expr.Lt(expr.C("l_quantity"), expr.Float64(24)),
	)
}

func revenue() expr.Expr {
	return expr.Mul(expr.C("l_extendedprice"), expr.Sub(expr.Float64(1), expr.C("l_discount")))
}

func (ls *layerSuite) exprAndOps(li, orders *batch.Batch) {
	rows := float64(li.NumRows())
	var keepRows []bool
	ls.measure("expr.filter.ns_per_row", rows, func() time.Duration {
		return timed(func() {
			var err error
			keepRows, err = expr.EvalBoolInto(q6Predicate(), li, keepRows)
			must(err)
		})
	})
	ls.measure("expr.project.ns_per_row", rows, func() time.Duration {
		return timed(func() { _, err := revenue().Eval(li); must(err) })
	})

	consume := func(op ops.Operator, input int, b *batch.Batch) {
		_, err := op.Consume(input, b)
		must(err)
	}
	finalize := func(op ops.Operator) []*batch.Batch {
		out, err := op.Finalize()
		must(err)
		return out
	}
	fp := ops.NewFilterProjectSpec(q6Predicate(), ops.NE("revenue", revenue()))
	ls.measure("ops.filter_project.ns_per_row", rows, func() time.Duration {
		op := fp.New(0, 1)
		return timed(func() { consume(op, 0, li) })
	})

	// The join's hash index is built by the first probe, so a one-row probe
	// is part of the build.
	join := ops.NewHashJoinSpec(ops.InnerJoin, []string{"o_orderkey"}, []string{"l_orderkey"})
	var built ops.Operator
	ls.measure("ops.join_build.ns_per_row", float64(orders.NumRows()), func() time.Duration {
		built = join.New(0, 1)
		return timed(func() { consume(built, 0, orders); consume(built, 1, li.Slice(0, 1)) })
	})
	ls.measure("ops.join_probe.ns_per_row", rows, func() time.Duration {
		return timed(func() { consume(built, 1, li) })
	})

	aggs := []ops.AggExpr{ops.Sum("qty", expr.C("l_quantity")), ops.Sum("rev", revenue()), ops.CountStar("n")}
	narrow := ops.NewHashAggSpec([]string{"l_returnflag", "l_linestatus"}, aggs...)
	wide := ops.NewHashAggSpec([]string{"l_orderkey"}, aggs...)
	ls.measure("ops.agg_consume.ns_per_row", rows, func() time.Duration {
		op := narrow.New(0, 1)
		return timed(func() { consume(op, 0, li) })
	})
	ls.measure("ops.agg_consume_wide.ns_per_row", rows, func() time.Duration {
		op := wide.New(0, 1)
		return timed(func() { consume(op, 0, li) })
	})
	groups := 0
	ls.measure("ops.agg_finalize.ns_per_group", 1, func() time.Duration {
		op := wide.New(0, 1)
		consume(op, 0, li)
		return timed(func() {
			groups = 0
			for _, b := range finalize(op) {
				groups += b.NumRows()
			}
		})
	})
	ls.out["ops.agg_finalize.ns_per_group"] /= float64(groups)
	sortSpec := ops.NewSortSpec(ops.Asc("l_extendedprice"))
	ls.measure("ops.sort.ns_per_row", rows, func() time.Duration {
		op := sortSpec.New(0, 1)
		return timed(func() { consume(op, 0, li); finalize(op) })
	})

	// The same three stateful operators under a memory budget far below
	// their state, so each one spills: whole life of the operator per call.
	// The input arrives in chunks, as it does from the engine.
	chunks := li.SplitRows(2048)
	spilled := func(name string, spec ops.Spec, feed func(op ops.Operator)) {
		ls.measure(name, rows, func() time.Duration {
			met := &metrics.Collector{}
			disk := storage.NewLocalDisk(storage.TestCostModel(), met)
			ctx := spill.NewContext(disk, spill.NewAccountant(spillBudget, met), met, spill.DefaultPartitions)
			ctx.SetCompression(true)
			op := spec.New(0, 1)
			sp := op.(ops.Spillable)
			sp.SetSpill(ctx.NewOp("bench/" + name))
			d := timed(func() { feed(op); finalize(op) })
			sp.DropSpill()
			if met.Get(metrics.SpillRuns) == 0 {
				panic("layer suite: " + name + " did not spill")
			}
			return d
		})
	}
	spilled("ops.join_spilled.ns_per_row", join, func(op ops.Operator) {
		consume(op, 0, orders)
		for _, c := range chunks {
			consume(op, 1, c)
		}
	})
	spilled("ops.agg_spilled.ns_per_row", wide, func(op ops.Operator) {
		for _, c := range chunks {
			consume(op, 0, c)
		}
	})
	spilled("ops.sort_spilled.ns_per_row", sortSpec, func(op ops.Operator) {
		for _, c := range chunks {
			consume(op, 0, c)
		}
	})
}

func (ls *layerSuite) spillLayer(li *batch.Batch) {
	rows := float64(li.NumRows())
	met := &metrics.Collector{}
	disk := storage.NewLocalDisk(storage.TestCostModel(), met)
	ctx := spill.NewContext(disk, spill.NewAccountant(0, met), met, spill.DefaultPartitions)
	ctx.SetCompression(true)
	op := ctx.NewOp("bench/run")
	ls.measure("spill.run_write.ns_per_row", rows, func() time.Duration {
		return timed(func() { must(op.WriteRun(0, spill.Raw, li)) })
	})
	run := op.Runs(0)[0]
	ls.out["spill.bytes_per_row"] = float64(run.Bytes) / rows
	ls.measure("spill.run_read.ns_per_row", rows, func() time.Duration {
		return timed(func() { _, err := op.ReadRun(run); must(err) })
	})
	op.Drop()
}

func (ls *layerSuite) planLayer() {
	ls.measure("plan.optimize_lower.us_per_query", float64(len(allQueries))*1e3, func() time.Duration {
		return timed(func() {
			for _, q := range allQueries {
				_, err := tpch.Query(q)
				must(err)
			}
		})
	})
}

func (ls *layerSuite) storageLayer(payload []byte) {
	kb := float64(len(payload)) / 1e3
	store := storage.NewObjectStore(storage.TestCostModel(), storage.ProfileS3, nil)
	disk := storage.NewLocalDisk(storage.TestCostModel(), nil)
	const objs = 64
	each := func(f func(key string)) time.Duration {
		return timed(func() {
			for i := 0; i < objs; i++ {
				f(fmt.Sprintf("bench/obj%d", i))
			}
		})
	}
	ls.measure("storage.obj_put.ns_per_kb", kb*objs, func() time.Duration {
		return each(func(key string) { must(store.Put(key, payload)) })
	})
	ls.measure("storage.obj_get.ns_per_kb", kb*objs, func() time.Duration {
		return each(func(key string) { _, err := store.Get(key); must(err) })
	})
	ls.measure("storage.disk_write.ns_per_kb", kb*objs, func() time.Duration {
		return each(func(key string) { must(disk.Write(key, payload)) })
	})
}

// gcsNamespace spells an engine-shaped "q/<qid>/" namespace. The store
// shards by that prefix, so the benchmark needs it to measure what the
// engine's transactions cost; it is assembled rather than written as one
// literal because the nskey invariant reserves the literal for
// engine.Runner.keyNS. The store here is the suite's own, never a query's.
func gcsNamespace(id string) string { return "q" + "/" + id + "/" }

func (ls *layerSuite) gcsLayer() {
	store := gcs.New(storage.TestCostModel(), nil)
	val := []byte("0123456789abcdef")
	nsA, nsB := gcsNamespace("bench-a"), gcsNamespace("bench-b")
	keys := func(ns string, n int) (out []string) {
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("%sk%03d", ns, i))
		}
		return out
	}
	keysA, keysB := keys(nsA, 200), keys(nsB, 4)
	must(store.UpdateNS(nsA, func(tx *gcs.Txn) error {
		for _, k := range keysA {
			tx.Put(k, val)
		}
		return nil
	}))
	readWrite := func(ks []string) func(tx *gcs.Txn) error {
		return func(tx *gcs.Txn) error {
			for _, k := range ks {
				tx.Get(k)
				tx.Put(k, val)
			}
			return nil
		}
	}
	const txns = 2000
	repeat := func(f func()) time.Duration {
		return timed(func() {
			for i := 0; i < txns; i++ {
				f()
			}
		})
	}
	ls.measure("gcs.update.ns_per_txn", txns, func() time.Duration {
		return repeat(func() { must(store.UpdateNS(nsA, readWrite(keysA[:4]))) })
	})
	both := append(append([]string(nil), keysA[:2]...), keysB[:2]...)
	ls.measure("gcs.update_multi.ns_per_txn", txns, func() time.Duration {
		return repeat(func() { must(store.UpdateMulti([]string{nsA, nsB}, readWrite(both))) })
	})
	ls.measure("gcs.view.ns_per_op", txns/10, func() time.Duration {
		return timed(func() {
			for i := 0; i < txns/10; i++ {
				must(store.ViewNS(nsA, func(tx *gcs.Txn) error {
					for _, k := range keysA {
						tx.Get(k)
					}
					return nil
				}))
			}
		})
	})
	procs := runtime.NumCPU()
	ls.measure("gcs.update_contended.ns_per_txn", float64(txns*procs), func() time.Duration {
		return timed(func() {
			var wg sync.WaitGroup
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < txns; i++ {
						must(store.UpdateNS(nsA, readWrite(keysA[:4])))
					}
				}()
			}
			wg.Wait()
		})
	})
}

func (ls *layerSuite) lineageLayer() {
	const n = 2000
	recs := make([]lineage.Record, n)
	for i := range recs {
		recs[i] = lineage.Consume(ls.rng.Intn(3), ls.rng.Intn(8), ls.rng.Intn(1<<16), 1+ls.rng.Intn(64))
	}
	encoded := make([][]byte, n)
	ls.measure("lineage.encode.ns_per_record", n, func() time.Duration {
		return timed(func() {
			for i, r := range recs {
				encoded[i] = r.Encode()
			}
		})
	})
	total := 0
	for _, e := range encoded {
		total += len(e)
	}
	ls.out["lineage.bytes_per_record"] = float64(total) / n
	ls.measure("lineage.decode.ns_per_record", n, func() time.Duration {
		return timed(func() {
			for _, e := range encoded {
				_, err := lineage.DecodeRecord(e)
				must(err)
			}
		})
	})
}

func (ls *layerSuite) flightLayer(payload []byte) {
	const parts = 64
	const query = "bench"
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	var srv *flight.Server
	ls.measure("flight.push.ns_per_partition", parts, func() time.Duration {
		srv = flight.NewServer(storage.TestCostModel(), nil)
		return timed(func() {
			for i := 0; i < parts; i++ {
				must(srv.Push(flight.Partition{
					Query: query, From: lineage.TaskName{Stage: 0, Channel: 0, Seq: i}, Dest: dest, Data: payload,
				}))
			}
		})
	})
	ls.measure("flight.take.ns_per_partition", parts, func() time.Duration {
		return timed(func() {
			for i := 0; i < parts; i++ {
				_, err := srv.Take(query, dest, 0, 0, i, 1)
				must(err)
			}
		})
	})
	kb := float64(len(payload)) / 1e3
	ls.measure("flight.spool_fetch.ns_per_kb", kb*parts, func() time.Duration {
		return timed(func() {
			for i := 0; i < parts; i++ {
				task := lineage.TaskName{Stage: 2, Channel: 0, Seq: i}
				must(srv.SpoolResult(query, task, payload, 0))
				_, err := srv.FetchResult(query, task)
				must(err)
			}
		})
	})
}

// smallLayers times cluster construction and the two always-on telemetry
// primitives.
func (ls *layerSuite) smallLayers() {
	store := storage.NewObjectStore(storage.TestCostModel(), storage.ProfileS3, nil)
	ls.measure("cluster.new.us", 1e3, func() time.Duration {
		return timed(func() { _, err := newCluster(4, store); must(err) })
	})
	const n = 100000
	hist := (&metrics.Collector{}).Hist("bench")
	ls.measure("metrics.hist_observe.ns_per_op", n, func() time.Duration {
		return timed(func() {
			for i := int64(0); i < n; i++ {
				hist.Observe(i)
			}
		})
	})
	ls.measure("trace.record.ns_per_span", n, func() time.Duration {
		rec := trace.New(2, n, nil)
		span := trace.Span{Kind: trace.KindTask, Worker: 1, Start: time.Now(), Dur: time.Microsecond}
		return timed(func() {
			for i := 0; i < n; i++ {
				if rec != nil {
					rec.Record(span)
				}
			}
		})
	})
}
