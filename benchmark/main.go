// Command benchmark is the repository's real-time benchmark: four TPC-H
// workloads measured end to end and layer by layer. See README.md in this
// directory for what each workload and metric is for.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	go run . -workload <tpch-data|tpch-ctl|recovery|proc|all> [-seed N] [-seconds S] [-trace 0|1] [-out results.json]
//	go run . -compare base.json head.json
//
// Each workload run prints one JSON object as the last line of standard
// output; everything meant for people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() { os.Exit(realMain()) }

// realMain returns the exit code, so that deferred clean-up runs first.
func realMain() int {
	var (
		workload  = flag.String("workload", "", "workload to run: "+workloadNames()+" or all")
		seed      = flag.Int64("seed", 1, "seed of the per-round query order, the killed worker, and the layer suite's rows, keys and payloads")
		seconds   = flag.Float64("seconds", 15, "how long to measure (at least 3 rounds are always run)")
		traceMode = flag.Int("trace", -1, "0: end-to-end metrics from untraced rounds; 1: per-layer metrics, every second round traced; -1: both")
		out       = flag.String("out", "", "append this run's results to a JSON file (the input of -compare)")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments: base.json head.json")
		workerBin = flag.String("worker-bin", "", "quokka-worker binary for the proc workload (built into a temporary directory when empty)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files: base.json head.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	var todo []workloadSpec
	if *workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workload); ok {
		todo = []workloadSpec{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q (want %s or all)", *workload, workloadNames()))
	}
	if *traceMode < -1 || *traceMode > 1 {
		return fail(fmt.Errorf("-trace must be 0, 1 or -1"))
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *traceMode, workerBin: *workerBin}
	for _, w := range todo {
		if w.Proc && opt.workerBin == "" {
			bin, cleanup, err := buildWorker()
			if err != nil {
				return fail(err)
			}
			defer cleanup()
			opt.workerBin = bin
		}
	}

	ok := true
	for _, w := range todo {
		res, err := runWorkload(w, opt)
		if err != nil {
			return fail(fmt.Errorf("workload %s: %w", w.Name, err))
		}
		res.print(os.Stderr)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				return fail(err)
			}
		}
		fmt.Println(res.contractLine())
		ok = ok && res.Correct
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: some operations failed; see FAILED lines above")
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// buildWorker compiles cmd/quokka-worker into a temporary directory. It
// works when the benchmark runs from its own module directory (`go run .`);
// run.sh builds the binary itself and passes -worker-bin.
func buildWorker() (bin string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "quokka-bench-bin-")
	if err != nil {
		return "", nil, err
	}
	bin = filepath.Join(dir, "quokka-worker")
	if out, err := exec.Command("go", "build", "-o", bin, "quokka/cmd/quokka-worker").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("build quokka-worker (run from the benchmark directory, or pass -worker-bin): %v\n%s", err, out)
	}
	return bin, func() { os.RemoveAll(dir) }, nil
}

// resultFile is the on-disk form of a set of runs.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds res to the result file at path, creating it if needed.
func appendResult(path string, res *result) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, res)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
