package engine

import (
	"fmt"
	"strconv"

	"quokka/internal/batch"
	"quokka/internal/storage"
)

// Tables live in the object store as numbered splits of encoded batches
// plus catalog metadata:
//
//	tbl/<name>/meta    number of splits
//	tbl/<name>/rows    total row count (planner statistics)
//	tbl/<name>/schema  zero-row encoded batch carrying the table schema
//	tbl/<name>/<i>     encoded batch for split i (QBA2 compressed)
//	tbl/<name>/zm/<i>  zone map for split i (min/max per column, row count)
//
// Splits are the reader stages' unit of work, like Parquet row groups on
// S3 in the paper's setup. The rows/schema entries are what the query
// planner's catalog reads: schemas drive plan-time column and type
// checking, row counts drive automatic broadcast-join selection, and the
// per-split zone maps drive split pruning: the planner folds scan
// predicates against each split's value ranges and drops splits that
// cannot match before stage scheduling.

// tablePrefix is the blessed construction site of the "tbl/" namespace
// (nskey analyzer): every catalog key derives from it.
func tablePrefix(name string) string { return "tbl/" + name + "/" }

func tableMetaKey(name string) string   { return tablePrefix(name) + "meta" }
func tableRowsKey(name string) string   { return tablePrefix(name) + "rows" }
func tableSchemaKey(name string) string { return tablePrefix(name) + "schema" }
func tableSplitKey(name string, i int) string {
	return tablePrefix(name) + strconv.Itoa(i)
}
func tableZoneMapKey(name string, i int) string {
	return tablePrefix(name) + "zm/" + strconv.Itoa(i)
}

// WriteTable stores batches as the splits of a table in the head's store,
// without I/O cost (dataset preparation is not part of the measured query). Splits must be
// non-empty so the schema metadata can be recorded — represent an empty
// table as one zero-row batch (both loaders already do), or the planner
// catalog will not see the table.
func WriteTable(store *storage.ObjectStore, name string, splits []*batch.Batch) {
	rows := 0
	for i, b := range splits {
		store.PutFree(tableSplitKey(name, i), batch.EncodeCompressed(b))
		store.PutFree(tableZoneMapKey(name, i), batch.ComputeZoneMap(b).Encode())
		rows += b.NumRows()
	}
	store.PutFree(tableMetaKey(name), []byte(strconv.Itoa(len(splits))))
	store.PutFree(tableRowsKey(name), []byte(strconv.Itoa(rows)))
	if len(splits) > 0 {
		empty := batch.NewBuilder(splits[0].Schema, 0).Build()
		store.PutFree(tableSchemaKey(name), batch.Encode(empty))
	}
}

// TableRowCount returns the table's total row count from the catalog
// metadata in the head's store. Metadata reads are free: planning is not
// part of the measured query.
func TableRowCount(store *storage.ObjectStore, name string) (int64, error) {
	v, err := store.GetFree(tableRowsKey(name))
	if err != nil {
		return 0, fmt.Errorf("engine: table %q has no row-count metadata: %w", name, err)
	}
	n, err := strconv.Atoi(string(v))
	if err != nil {
		return 0, fmt.Errorf("engine: bad row count for table %q: %w", name, err)
	}
	return int64(n), nil
}

// TableSchema returns the table's schema from the catalog metadata.
func TableSchema(store *storage.ObjectStore, name string) (*batch.Schema, error) {
	v, err := store.GetFree(tableSchemaKey(name))
	if err != nil {
		return nil, fmt.Errorf("engine: table %q not found: %w", name, err)
	}
	b, err := batch.Decode(v)
	if err != nil {
		return nil, fmt.Errorf("engine: bad schema for table %q: %w", name, err)
	}
	return b.Schema, nil
}

// TableSplits returns the number of splits of a table.
func TableSplits(store storage.Objects, name string) (int, error) {
	v, err := store.Get(tableMetaKey(name))
	if err != nil {
		return 0, fmt.Errorf("engine: table %q not found: %w", name, err)
	}
	n, err := strconv.Atoi(string(v))
	if err != nil {
		return 0, fmt.Errorf("engine: bad meta for table %q: %w", name, err)
	}
	return n, nil
}

// TableZoneMaps returns the per-split zone maps of a table, indexed by
// split number. Tables written before zone maps existed (or stores that
// lost the entries) return an error; planners treat that as "no stats" and
// skip pruning. Metadata reads are free, like the rest of the catalog.
func TableZoneMaps(store *storage.ObjectStore, name string) ([]*batch.ZoneMap, error) {
	v, err := store.GetFree(tableMetaKey(name))
	if err != nil {
		return nil, fmt.Errorf("engine: table %q not found: %w", name, err)
	}
	n, err := strconv.Atoi(string(v))
	if err != nil {
		return nil, fmt.Errorf("engine: bad meta for table %q: %w", name, err)
	}
	zms := make([]*batch.ZoneMap, n)
	for i := 0; i < n; i++ {
		raw, err := store.GetFree(tableZoneMapKey(name, i))
		if err != nil {
			return nil, fmt.Errorf("engine: table %q split %d has no zone map: %w", name, i, err)
		}
		zm, err := batch.DecodeZoneMap(raw)
		if err != nil {
			return nil, fmt.Errorf("engine: table %q split %d: %w", name, i, err)
		}
		zms[i] = zm
	}
	return zms, nil
}

// readSplits fetches a reader run's split objects in one request
// (storage.Objects.GetMany), paying the full object-store read cost of each:
// a split object moves whole, whatever columns the plan decodes of it.
func readSplits(store storage.Objects, name string, splits []int) ([][]byte, error) {
	keys := make([]string, len(splits))
	for i, s := range splits {
		keys[i] = tableSplitKey(name, s)
	}
	vals, err := store.GetMany(keys)
	if err != nil {
		return nil, fmt.Errorf("engine: splits %v of table %q: %w", splits, name, err)
	}
	return vals, nil
}
