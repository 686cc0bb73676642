// Package a exercises the nskey analyzer: namespace prefixes are built
// by exactly one blessed helper each, and range deletes/scans only
// happen inside the audited sweep functions.
package a

// Disk mimics the storage layer; DeletePrefix is a range delete.
type Disk struct{}

func (Disk) DeletePrefix(p string)    {}
func (Disk) Write(k string, v []byte) {}

// Txn mimics the GCS transaction handle; List is a range scan.
type Txn struct{}

func (Txn) List(prefix string) []string { return nil }

// DeleteNS is a range delete narrowed to its own caller, teardown.
func (Txn) DeleteNS(ns string) {}

// Other has a List method too, but is not the pinned range type.
type Other struct{}

func (Other) List(p string) {}

// spillPrefix is the blessed construction site for "spill/".
func spillPrefix(qid string) string { return "spill/" + qid + "/" }

// backupPrefix is the blessed construction site for "bk/".
func backupPrefix(qid string) string { return "bk/" + qid + "/" }

// sweep is an audited sweep function: range calls are legal here when
// their arguments come from the blessed helpers.
func sweep(d Disk, t Txn, qid string) {
	d.DeletePrefix(spillPrefix(qid))
	d.DeletePrefix(backupPrefix(qid))
	_ = t.List(spillPrefix(qid))
	// A method narrowed to its own callers is illegal even here.
	t.DeleteNS(qid) // want "DeleteNS call outside the audited sweep functions (teardown)"
}

// Inline key construction outside the blessed helpers is illegal.
func badLiteral(d Disk, qid string) {
	d.Write("spill/"+qid+"/run0", nil) // want "raw \"spill/\" namespace literal"
	d.Write("bk/"+qid+"/t0", nil)      // want "raw \"bk/\" namespace literal"
}

// A package-level key constant is just as illegal.
const badConst = "spill/global/" // want "raw \"spill/\" namespace literal"

// Range calls outside the audited sweeps are illegal even with blessed
// arguments — sweeping is a per-query teardown concern, not a utility.
func badSweep(d Disk, t Txn, qid string) {
	d.DeletePrefix(spillPrefix(qid)) // want "DeletePrefix call outside the audited sweep functions"
	_ = t.List(spillPrefix(qid))     // want "List call outside the audited sweep functions"
}

// teardown is DeleteNS's one blessed caller.
func teardown(t Txn, ns string) { t.DeleteNS(ns) }

// List on a type other than the pinned range type is not a range scan.
func okList(o Other) { o.List("x") }

// Prefix-free literals are fine anywhere.
func okLiteral(d Disk) { d.Write("meta", nil) }
