package engine

// KillInTxn is killInTxn for the package's external tests, which run the
// TPC-H queries this package cannot import.
var KillInTxn = killInTxn
