// The benchmark is a module of its own so that it builds from its own
// build file and never joins the root module's `go build ./...`; the
// replace directive and the shared "quokka/" path prefix let it import the
// engine's internal packages and measure them from outside.
module quokka/benchmark

go 1.24

require quokka v0.0.0

replace quokka => ../
