// Package tpch implements the TPC-H substrate: a deterministic scaled-down
// dbgen (8 tables with the benchmark's schema, key relationships, value
// distributions and text patterns) and all 22 query plans for the engine.
// It plays the role of "TPC-H scale factor 100 in Parquet on S3" from the
// paper's evaluation (§V), at configurable scale.
package tpch

import (
	"fmt"
	"math/rand"
	"strings"

	"quokka/internal/batch"
	"quokka/internal/engine"
	"quokka/internal/expr"
	"quokka/internal/storage"
)

// Scale factors: table cardinalities per TPC-H spec, multiplied by SF.
const (
	baseSupplier = 10000
	baseCustomer = 150000
	basePart     = 200000
	baseOrders   = 1500000
)

// Date constants used by dbgen.
var (
	startDate = expr.DaysOfDate(1992, 1, 1)
	endDate   = expr.DaysOfDate(1998, 8, 2) // last order date
	cutoff    = expr.DaysOfDate(1995, 6, 17)
)

// Nations and regions, straight from the spec.
var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationDefs = []struct {
	Name   string
	Region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var (
	colors = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood",
		"chartreuse", "chiffon", "chocolate", "coral", "cornflower",
		"cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
		"floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
		"green", "grey", "honeydew", "hot", "indian", "ivory", "khaki",
		"lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
		"magenta", "maroon", "medium", "metallic", "midnight", "mint",
		"misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
		"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
		"purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
		"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow",
		"spring", "steel", "tan", "thistle", "tomato", "turquoise",
		"violet", "wheat", "white", "yellow",
	}
	typeSyl1   = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2   = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3   = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers = []string{"SM", "MED", "LG", "JUMBO", "WRAP"}
	containerT = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	fillWords  = []string{
		"carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
		"accounts", "packages", "theodolites", "instructions", "platelets",
		"foxes", "ideas", "requests", "pinto", "beans", "asymptotes",
		"courts", "dolphins", "multipliers", "sauternes", "warhorses",
	}
)

// Table schemas, straight from the spec (scaled-down column sets). They
// are package-level so the generator and the planner catalog share one
// definition.
var (
	regionSchema = batch.NewSchema(
		batch.F("r_regionkey", batch.Int64),
		batch.F("r_name", batch.String),
	)
	nationSchema = batch.NewSchema(
		batch.F("n_nationkey", batch.Int64),
		batch.F("n_name", batch.String),
		batch.F("n_regionkey", batch.Int64),
	)
	partSchema = batch.NewSchema(
		batch.F("p_partkey", batch.Int64),
		batch.F("p_name", batch.String),
		batch.F("p_mfgr", batch.String),
		batch.F("p_brand", batch.String),
		batch.F("p_type", batch.String),
		batch.F("p_size", batch.Int64),
		batch.F("p_container", batch.String),
		batch.F("p_retailprice", batch.Float64),
	)
	supplierSchema = batch.NewSchema(
		batch.F("s_suppkey", batch.Int64),
		batch.F("s_name", batch.String),
		batch.F("s_nationkey", batch.Int64),
		batch.F("s_phone", batch.String),
		batch.F("s_acctbal", batch.Float64),
		batch.F("s_comment", batch.String),
	)
	partSuppSchema = batch.NewSchema(
		batch.F("ps_partkey", batch.Int64),
		batch.F("ps_suppkey", batch.Int64),
		batch.F("ps_availqty", batch.Int64),
		batch.F("ps_supplycost", batch.Float64),
	)
	customerSchema = batch.NewSchema(
		batch.F("c_custkey", batch.Int64),
		batch.F("c_name", batch.String),
		batch.F("c_nationkey", batch.Int64),
		batch.F("c_phone", batch.String),
		batch.F("c_acctbal", batch.Float64),
		batch.F("c_mktsegment", batch.String),
	)
	ordersSchema = batch.NewSchema(
		batch.F("o_orderkey", batch.Int64),
		batch.F("o_custkey", batch.Int64),
		batch.F("o_orderstatus", batch.String),
		batch.F("o_totalprice", batch.Float64),
		batch.F("o_orderdate", batch.Date),
		batch.F("o_orderpriority", batch.String),
		batch.F("o_shippriority", batch.Int64),
		batch.F("o_comment", batch.String),
	)
	lineitemSchema = batch.NewSchema(
		batch.F("l_orderkey", batch.Int64),
		batch.F("l_partkey", batch.Int64),
		batch.F("l_suppkey", batch.Int64),
		batch.F("l_linenumber", batch.Int64),
		batch.F("l_quantity", batch.Float64),
		batch.F("l_extendedprice", batch.Float64),
		batch.F("l_discount", batch.Float64),
		batch.F("l_tax", batch.Float64),
		batch.F("l_returnflag", batch.String),
		batch.F("l_linestatus", batch.String),
		batch.F("l_shipdate", batch.Date),
		batch.F("l_commitdate", batch.Date),
		batch.F("l_receiptdate", batch.Date),
		batch.F("l_shipinstruct", batch.String),
		batch.F("l_shipmode", batch.String),
	)
)

// TableSchemas returns the catalog's table name -> schema mapping.
func TableSchemas() map[string]*batch.Schema {
	return map[string]*batch.Schema{
		"region":   regionSchema,
		"nation":   nationSchema,
		"supplier": supplierSchema,
		"customer": customerSchema,
		"part":     partSchema,
		"partsupp": partSuppSchema,
		"orders":   ordersSchema,
		"lineitem": lineitemSchema,
	}
}

// TableRowsAt returns the spec's table cardinalities at scale factor sf —
// the planner statistics behind automatic broadcast selection (lineitem
// averages four rows per order).
func TableRowsAt(sf float64) map[string]int64 {
	return map[string]int64{
		"region":   int64(len(regionNames)),
		"nation":   int64(len(nationDefs)),
		"supplier": int64(scaled(baseSupplier, sf)),
		"customer": int64(scaled(baseCustomer, sf)),
		"part":     int64(scaled(basePart, sf)),
		"partsupp": 4 * int64(scaled(basePart, sf)),
		"orders":   int64(scaled(baseOrders, sf)),
		"lineitem": 4 * int64(scaled(baseOrders, sf)),
	}
}

// Data holds the generated tables as single batches plus derived metadata.
type Data struct {
	SF       float64
	Region   *batch.Batch
	Nation   *batch.Batch
	Supplier *batch.Batch
	Customer *batch.Batch
	Part     *batch.Batch
	PartSupp *batch.Batch
	Orders   *batch.Batch
	Lineitem *batch.Batch
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// Generate produces the eight TPC-H tables at the given scale factor,
// deterministically (fixed seeds per table).
func Generate(sf float64) *Data {
	d := &Data{SF: sf}
	d.genRegionNation()
	nSupp := scaled(baseSupplier, sf)
	nCust := scaled(baseCustomer, sf)
	nPart := scaled(basePart, sf)
	nOrd := scaled(baseOrders, sf)
	retail := d.genPart(nPart)
	d.genSupplier(nSupp)
	d.genPartSupp(nPart, nSupp)
	d.genCustomer(nCust)
	d.genOrdersLineitem(nOrd, nCust, nPart, nSupp, retail)
	return d
}

func comment(rng *rand.Rand, inject string, prob float64) string {
	n := 3 + rng.Intn(5)
	words := make([]string, n)
	for i := range words {
		words[i] = fillWords[rng.Intn(len(fillWords))]
	}
	if inject != "" && rng.Float64() < prob {
		words[rng.Intn(n)] = inject
	}
	return strings.Join(words, " ")
}

func (d *Data) genRegionNation() {
	rk := make([]int64, len(regionNames))
	for i := range rk {
		rk[i] = int64(i)
	}
	d.Region = batch.MustNew(regionSchema, []*batch.Column{
		batch.NewIntColumn(rk), batch.NewStringColumn(append([]string(nil), regionNames...)),
	})

	nk := make([]int64, len(nationDefs))
	nn := make([]string, len(nationDefs))
	nr := make([]int64, len(nationDefs))
	for i, n := range nationDefs {
		nk[i] = int64(i)
		nn[i] = n.Name
		nr[i] = int64(n.Region)
	}
	d.Nation = batch.MustNew(nationSchema, []*batch.Column{
		batch.NewIntColumn(nk), batch.NewStringColumn(nn), batch.NewIntColumn(nr),
	})
}

func (d *Data) genPart(n int) []float64 {
	rng := rand.New(rand.NewSource(7001))
	keys := make([]int64, n)
	names := make([]string, n)
	mfgrs := make([]string, n)
	brands := make([]string, n)
	types := make([]string, n)
	sizes := make([]int64, n)
	conts := make([]string, n)
	prices := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i + 1)
		w := make([]string, 5)
		for j := range w {
			w[j] = colors[rng.Intn(len(colors))]
		}
		names[i] = strings.Join(w, " ")
		m := 1 + rng.Intn(5)
		mfgrs[i] = fmt.Sprintf("Manufacturer#%d", m)
		brands[i] = fmt.Sprintf("Brand#%d%d", m, 1+rng.Intn(5))
		types[i] = typeSyl1[rng.Intn(len(typeSyl1))] + " " +
			typeSyl2[rng.Intn(len(typeSyl2))] + " " +
			typeSyl3[rng.Intn(len(typeSyl3))]
		sizes[i] = int64(1 + rng.Intn(50))
		conts[i] = containers[rng.Intn(len(containers))] + " " +
			containerT[rng.Intn(len(containerT))]
		prices[i] = 900 + float64((i+1)%1000)/10 + float64(rng.Intn(100))
	}
	d.Part = batch.MustNew(partSchema, []*batch.Column{
		batch.NewIntColumn(keys), batch.NewStringColumn(names),
		batch.NewStringColumn(mfgrs), batch.NewStringColumn(brands),
		batch.NewStringColumn(types), batch.NewIntColumn(sizes),
		batch.NewStringColumn(conts), batch.NewFloatColumn(prices),
	})
	return prices
}

func (d *Data) genSupplier(n int) {
	rng := rand.New(rand.NewSource(7002))
	keys := make([]int64, n)
	names := make([]string, n)
	nats := make([]int64, n)
	phones := make([]string, n)
	bals := make([]float64, n)
	comms := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i + 1)
		names[i] = fmt.Sprintf("Supplier#%09d", i+1)
		nats[i] = int64(rng.Intn(len(nationDefs)))
		phones[i] = fmt.Sprintf("%d-%03d-%03d-%04d", 10+nats[i], rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))
		bals[i] = float64(rng.Intn(1100000))/100 - 1000
		comms[i] = comment(rng, "Customer Complaints", 0.005)
	}
	d.Supplier = batch.MustNew(supplierSchema, []*batch.Column{
		batch.NewIntColumn(keys), batch.NewStringColumn(names),
		batch.NewIntColumn(nats), batch.NewStringColumn(phones),
		batch.NewFloatColumn(bals), batch.NewStringColumn(comms),
	})
}

func (d *Data) genPartSupp(nPart, nSupp int) {
	rng := rand.New(rand.NewSource(7003))
	n := nPart * 4
	pk := make([]int64, 0, n)
	sk := make([]int64, 0, n)
	aq := make([]int64, 0, n)
	sc := make([]float64, 0, n)
	for p := 1; p <= nPart; p++ {
		for i := 0; i < 4; i++ {
			pk = append(pk, int64(p))
			// The spec's supplier spread: distinct suppliers per part.
			sk = append(sk, int64((p+i*(nSupp/4+1))%nSupp+1))
			aq = append(aq, int64(1+rng.Intn(9999)))
			sc = append(sc, 1+float64(rng.Intn(99900))/100)
		}
	}
	d.PartSupp = batch.MustNew(partSuppSchema, []*batch.Column{
		batch.NewIntColumn(pk), batch.NewIntColumn(sk),
		batch.NewIntColumn(aq), batch.NewFloatColumn(sc),
	})
}

func (d *Data) genCustomer(n int) {
	rng := rand.New(rand.NewSource(7004))
	keys := make([]int64, n)
	names := make([]string, n)
	nats := make([]int64, n)
	phones := make([]string, n)
	bals := make([]float64, n)
	segs := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i + 1)
		names[i] = fmt.Sprintf("Customer#%09d", i+1)
		nats[i] = int64(rng.Intn(len(nationDefs)))
		phones[i] = fmt.Sprintf("%d-%03d-%03d-%04d", 10+nats[i], rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))
		bals[i] = float64(rng.Intn(1100000))/100 - 1000
		segs[i] = segments[rng.Intn(len(segments))]
	}
	d.Customer = batch.MustNew(customerSchema, []*batch.Column{
		batch.NewIntColumn(keys), batch.NewStringColumn(names),
		batch.NewIntColumn(nats), batch.NewStringColumn(phones),
		batch.NewFloatColumn(bals), batch.NewStringColumn(segs),
	})
}

func (d *Data) genOrdersLineitem(nOrd, nCust, nPart, nSupp int, retail []float64) {
	rng := rand.New(rand.NewSource(7005))

	oKey := make([]int64, nOrd)
	oCust := make([]int64, nOrd)
	oStat := make([]string, nOrd)
	oTotal := make([]float64, nOrd)
	oDate := make([]int64, nOrd)
	oPrio := make([]string, nOrd)
	oShip := make([]int64, nOrd)
	oComm := make([]string, nOrd)

	var lKey, lPart, lSupp, lNum []int64
	var lQty, lPrice, lDisc, lTax []float64
	var lRet, lStat, lInstr, lMode []string
	var lShipD, lCommD, lRecD []int64

	for i := 0; i < nOrd; i++ {
		ok := int64(i + 1)
		oKey[i] = ok
		// dbgen skips every third customer key.
		ck := int64(1 + rng.Intn(nCust))
		for ck%3 == 0 {
			ck = int64(1 + rng.Intn(nCust))
		}
		oCust[i] = ck
		date := startDate + int64(rng.Intn(int(endDate-startDate+1)))
		oDate[i] = date
		oPrio[i] = priorities[rng.Intn(len(priorities))]
		oShip[i] = 0
		oComm[i] = comment(rng, "special requests", 0.02)

		nLines := 1 + rng.Intn(7)
		allF, allO := true, true
		var total float64
		for ln := 0; ln < nLines; ln++ {
			pk := int64(1 + rng.Intn(nPart))
			// Same spread as partsupp so (partkey, suppkey) joins hit.
			sk := int64((int(pk)+(ln%4)*(nSupp/4+1))%nSupp + 1)
			qty := float64(1 + rng.Intn(50))
			price := qty * retail[pk-1]
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := date + 1 + int64(rng.Intn(121))
			commit := date + 30 + int64(rng.Intn(61))
			receipt := ship + 1 + int64(rng.Intn(30))
			var ret string
			if receipt <= cutoff {
				if rng.Intn(2) == 0 {
					ret = "R"
				} else {
					ret = "A"
				}
			} else {
				ret = "N"
			}
			var stat string
			if ship > cutoff {
				stat = "O"
				allF = false
			} else {
				stat = "F"
				allO = false
			}
			lKey = append(lKey, ok)
			lPart = append(lPart, pk)
			lSupp = append(lSupp, sk)
			lNum = append(lNum, int64(ln+1))
			lQty = append(lQty, qty)
			lPrice = append(lPrice, price)
			lDisc = append(lDisc, disc)
			lTax = append(lTax, tax)
			lRet = append(lRet, ret)
			lStat = append(lStat, stat)
			lShipD = append(lShipD, ship)
			lCommD = append(lCommD, commit)
			lRecD = append(lRecD, receipt)
			lInstr = append(lInstr, instructs[rng.Intn(len(instructs))])
			lMode = append(lMode, shipmodes[rng.Intn(len(shipmodes))])
			total += price * (1 + tax) * (1 - disc)
		}
		switch {
		case allF:
			oStat[i] = "F"
		case allO:
			oStat[i] = "O"
		default:
			oStat[i] = "P"
		}
		oTotal[i] = total
	}

	d.Orders = batch.MustNew(ordersSchema, []*batch.Column{
		batch.NewIntColumn(oKey), batch.NewIntColumn(oCust),
		batch.NewStringColumn(oStat), batch.NewFloatColumn(oTotal),
		batch.NewDateColumn(oDate), batch.NewStringColumn(oPrio),
		batch.NewIntColumn(oShip), batch.NewStringColumn(oComm),
	})
	d.Lineitem = batch.MustNew(lineitemSchema, []*batch.Column{
		batch.NewIntColumn(lKey), batch.NewIntColumn(lPart),
		batch.NewIntColumn(lSupp), batch.NewIntColumn(lNum),
		batch.NewFloatColumn(lQty), batch.NewFloatColumn(lPrice),
		batch.NewFloatColumn(lDisc), batch.NewFloatColumn(lTax),
		batch.NewStringColumn(lRet), batch.NewStringColumn(lStat),
		batch.NewDateColumn(lShipD), batch.NewDateColumn(lCommD),
		batch.NewDateColumn(lRecD), batch.NewStringColumn(lInstr),
		batch.NewStringColumn(lMode),
	})
}

// Tables returns the table name -> batch mapping.
func (d *Data) Tables() map[string]*batch.Batch {
	return map[string]*batch.Batch{
		"region":   d.Region,
		"nation":   d.Nation,
		"supplier": d.Supplier,
		"customer": d.Customer,
		"part":     d.Part,
		"partsupp": d.PartSupp,
		"orders":   d.Orders,
		"lineitem": d.Lineitem,
	}
}

// DefaultSplitRows is the generator's default split granularity.
const DefaultSplitRows = 1024

// Load writes all tables into the object store, splitting each into
// DefaultSplitRows-row splits (or splitRows if > 0). Small dimension
// tables become a single split.
func Load(store *storage.ObjectStore, d *Data, splitRows int) {
	if splitRows <= 0 {
		splitRows = DefaultSplitRows
	}
	for name, b := range d.Tables() {
		splits := b.SplitRows(splitRows)
		if splits == nil {
			splits = []*batch.Batch{b}
		}
		engine.WriteTable(store, name, splits)
	}
}
