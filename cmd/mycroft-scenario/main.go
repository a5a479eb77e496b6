// Command mycroft-scenario runs declarative fault scenarios on the
// simulated substrate.
//
//	mycroft-scenario list                        # built-in scenario library
//	mycroft-scenario validate <file.json|name>   # parse + validate a spec
//	mycroft-scenario run <name|file.json> [-seed N] [-json]
//
// Scenarios are JSON files (see README.md for the format) or names from the
// built-in library. A fleet declares one or many jobs; with
// "shared_engine": true the whole fleet runs concurrently on one
// mycroft.Service (the multi-tenant production shape). Runs are
// deterministic: the same spec and seed produce a byte-identical report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mycroft/internal/faults"
	"mycroft/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "validate":
		validate(os.Args[2:])
	case "run":
		run(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mycroft-scenario: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: mycroft-scenario <command> [args]

  list                         list the built-in scenario library
  validate <file.json|name>    parse and validate a scenario spec
  validate -all                validate every builtin scenario
  run <name|file.json> [flags] execute a scenario and print its report

run flags:
  -seed N       override the scenario seed (default: spec seed, else 1)
  -json         emit the structured result as JSON instead of text
  -record DIR   capture one incident artifact per job to DIR/<job>.mycrec
                (replay them with "mycroft-trace replay")
`)
}

// kindsOf renders a spec's fault-kind set for the listing.
func kindsOf(kinds []faults.Kind) string {
	if len(kinds) == 0 {
		return "-"
	}
	strs := make([]string, len(kinds))
	for i, k := range kinds {
		strs[i] = string(k)
	}
	return strings.Join(strs, ",")
}

func list() {
	builtins := scenario.Builtins()
	w := 0
	for _, s := range builtins {
		if len(s.Name) > w {
			w = len(s.Name)
		}
	}
	covered := map[faults.Kind]bool{}
	for _, s := range builtins {
		kinds := s.FaultKinds()
		fmt.Printf("%-*s  %-40s  %s\n", w, s.Name, kindsOf(kinds), s.Description)
		for _, k := range kinds {
			covered[k] = true
		}
	}
	fmt.Printf("\n%d scenarios covering %d/%d fault kinds\n", len(builtins), len(covered), len(faults.All()))
}

func validate(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: mycroft-scenario validate <file.json|name|-all>")
		os.Exit(2)
	}
	if args[0] == "-all" || args[0] == "--all" {
		// Every builtin must validate AND survive a JSON round-trip — the
		// library is also the file-format documentation.
		for _, spec := range scenario.Builtins() {
			if err := spec.Validate(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			data, err := json.Marshal(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mycroft-scenario: %s: marshal: %v\n", spec.Name, err)
				os.Exit(1)
			}
			if _, err := scenario.Parse(data); err != nil {
				fmt.Fprintf(os.Stderr, "mycroft-scenario: %s: round-trip: %v\n", spec.Name, err)
				os.Exit(1)
			}
			describe(spec)
		}
		fmt.Printf("%d builtin scenarios valid\n", len(scenario.Builtins()))
		return
	}
	spec, err := scenario.Load(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	describe(spec)
}

func describe(spec scenario.Spec) {
	engine := "independent engines"
	if spec.Fleet.SharedEngine {
		engine = "one shared engine"
	}
	extra := ""
	if n := len(spec.Remediate); n > 0 {
		extra = fmt.Sprintf(", %d remediation polic(ies)", n)
	}
	fmt.Printf("%s: valid (%d events, %d assertions, %d job(s) on %s%s)\n",
		spec.Name, len(spec.Events), len(spec.Assertions), spec.JobCount(), engine, extra)
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the scenario seed")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	recordDir := fs.String("record", "", "record per-job incident artifacts to this directory")
	var target string
	// Accept the target anywhere among the flags: `run name -seed 2`,
	// `run -seed 2 name` and `run -seed 2 name -json` all work.
	rest := args
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		target, rest = rest[0], rest[1:]
	}
	_ = fs.Parse(rest)
	if target == "" && fs.NArg() > 0 {
		target = fs.Arg(0)
		_ = fs.Parse(fs.Args()[1:]) // flags that followed the positional
	}
	if target == "" {
		fmt.Fprintln(os.Stderr, "usage: mycroft-scenario run <name|file.json> [-seed N] [-json] [-record DIR]")
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mycroft-scenario run: unexpected argument %q (one scenario per run)\n", fs.Arg(0))
		os.Exit(2)
	}
	spec, err := scenario.Load(target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := scenario.RunWith(spec, *seed, scenario.RunOptions{RecordDir: *recordDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *recordDir != "" {
		fmt.Fprintf(os.Stderr, "mycroft-scenario: recorded %d incident artifact(s) under %s\n", len(res.Jobs), *recordDir)
	}
	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(res.Render())
	}
	if !res.Pass {
		os.Exit(1)
	}
}
