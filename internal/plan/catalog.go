package plan

import (
	"quokka/internal/batch"
	"quokka/internal/engine"
	"quokka/internal/storage"
)

// storeCatalog resolves planning metadata from an object store's table
// entries (engine.WriteTable records schema and row count alongside the
// splits). Metadata reads are free — planning is not part of the measured
// query.
type storeCatalog struct {
	store *storage.ObjectStore
}

// NewStoreCatalog returns a Catalog over the tables of the head's store.
func NewStoreCatalog(store *storage.ObjectStore) Catalog {
	return storeCatalog{store: store}
}

func (c storeCatalog) TableSchema(name string) (*batch.Schema, error) {
	return engine.TableSchema(c.store, name)
}

func (c storeCatalog) TableRows(name string) (int64, bool) {
	rows, err := engine.TableRowCount(c.store, name)
	if err != nil {
		return 0, false
	}
	return rows, true
}

// TableZoneMaps implements SplitStats: the per-split min/max statistics
// engine.WriteTable records alongside each split. An error (older tables
// without zone maps) makes the pruning pass a no-op for the table.
func (c storeCatalog) TableZoneMaps(name string) ([]*batch.ZoneMap, error) {
	return engine.TableZoneMaps(c.store, name)
}
