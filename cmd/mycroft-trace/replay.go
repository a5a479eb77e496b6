package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mycroft"
	"mycroft/internal/replay"
)

// runReplay implements `mycroft-trace replay`: decode an incident artifact,
// re-drive it through a fresh analysis stack, and report how the replayed
// conclusions relate to the recorded ones.
//
//	mycroft-trace replay <artifact.mycrec> [-whatif file.json] [-diff]
//	mycroft-trace replay -addr host:port [-job id] [-o saved.mycrec] [flags]
//
// A faithful replay (no -whatif) reproduces the original triggers and
// reports byte-for-byte; -diff verifies that and exits 1 on drift. With
// -whatif the artifact's evidence is re-judged under overridden thresholds
// and/or an alternative policy, and the diff shows what would have changed.
func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, `usage: mycroft-trace replay <artifact.mycrec> [flags]
       mycroft-trace replay -addr host:port [-job id] [flags]

  -whatif FILE  re-judge under overrides: JSON with the analysis config's
                fields (window_ns, throughput_drop, straggler_late_ns,
                chase_depth, ...; not the recorded interval_ns or
                max_sampled) and/or a "policy" to shadow-match against the
                verdicts; a field the file leaves out keeps its recorded value
  -diff         print the recorded-vs-replayed diff; without -whatif, exit 1
                when a faithful replay drifts
  -addr ADDR    download the artifact from a live mycroft-serve daemon
                (requires -record on the daemon) instead of reading a file
  -job ID       job to download with -addr (default "trace")
  -o FILE       with -addr: also save the downloaded artifact to FILE
`)
	}
	whatifPath := fs.String("whatif", "", "what-if overrides file (JSON)")
	diffMode := fs.Bool("diff", false, "diff recorded vs replayed outcomes")
	addr := fs.String("addr", "", "download from a live daemon")
	jobFlag := fs.String("job", "trace", "job id to download with -addr")
	outPath := fs.String("o", "", "save the downloaded artifact here")

	// Accept the artifact path anywhere among the flags, like scenario run.
	var target string
	rest := args
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		target, rest = rest[0], rest[1:]
	}
	_ = fs.Parse(rest)
	if target == "" && fs.NArg() > 0 {
		target = fs.Arg(0)
		_ = fs.Parse(fs.Args()[1:])
	}
	if (target == "") == (*addr == "") {
		fs.Usage()
		os.Exit(2)
	}

	var src io.ReadSeeker
	if *addr != "" {
		rc, err := mycroft.Dial(*addr)
		if err != nil {
			die(err)
		}
		var buf bytes.Buffer
		if err := rc.FetchRecord(mycroft.JobID(*jobFlag), &buf); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "mycroft-trace: downloaded %d bytes for job %q\n", buf.Len(), *jobFlag)
		if *outPath != "" {
			if err := os.WriteFile(*outPath, buf.Bytes(), 0o644); err != nil {
				die(err)
			}
			fmt.Fprintf(os.Stderr, "mycroft-trace: saved artifact to %s\n", *outPath)
		}
		src = bytes.NewReader(buf.Bytes())
	} else {
		f, err := os.Open(target)
		if err != nil {
			die(err)
		}
		defer f.Close()
		src = f
	}

	opts, whatif, err := replayOptions(src, *whatifPath)
	if err != nil {
		die(err)
	}
	res, err := mycroft.Replay(src, opts)
	if err != nil {
		die(err)
	}
	renderReplay(os.Stdout, res, whatif)

	if *diffMode || whatif {
		d := mycroft.DiffOutcomes(res.Recorded, res.Replayed)
		fmt.Print(d.Render())
		// A faithful replay must not drift; under what-if, drift is the point.
		if *diffMode && !whatif && !d.Zero() {
			os.Exit(1)
		}
	}
}

// replayOptions loads the -whatif file (when given) into replay options and
// reports whether any what-if adjustment is active. The file decodes onto a
// copy of the artifact header's configuration, so a key it leaves out keeps
// its recorded value; src is read for that header and rewound.
func replayOptions(src io.ReadSeeker, path string) (mycroft.ReplayOptions, bool, error) {
	var opts mycroft.ReplayOptions
	if path == "" {
		return opts, false, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return opts, false, err
	}
	dec, err := replay.NewDecoder(src)
	if err != nil {
		return opts, false, err
	}
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return opts, false, err
	}
	w := struct {
		mycroft.BackendConfig
		Policy *mycroft.RemedyPolicy `json:"policy"`
	}{BackendConfig: dec.Header().Backend}
	jd := json.NewDecoder(bytes.NewReader(data))
	jd.DisallowUnknownFields()
	if err := jd.Decode(&w); err != nil {
		return opts, false, fmt.Errorf("mycroft-trace: parsing %s: %w", path, err)
	}
	// A key the file names overrides, even with the recorded value; the
	// evaluation interval and the sample cap are recorded facts, so naming
	// either is refused whatever its value. Keys match as the decoder's do,
	// ignoring case, and a null sets nothing.
	var keys map[string]json.RawMessage
	_ = json.NewDecoder(bytes.NewReader(data)).Decode(&keys)
	for k, v := range keys {
		switch {
		case strings.EqualFold(k, "interval_ns"), strings.EqualFold(k, "max_sampled"):
			return opts, false, fmt.Errorf("mycroft-trace: %s: %s is recorded in the artifact and cannot be overridden", path, k)
		case !strings.EqualFold(k, "policy") && string(v) != "null":
			opts.Backend = &w.BackendConfig
		}
	}
	if w.Policy != nil {
		if err := w.Policy.Validate(); err != nil {
			return opts, false, err
		}
		opts.Policy = w.Policy
	}
	if opts.Backend == nil && opts.Policy == nil {
		return opts, false, fmt.Errorf("mycroft-trace: %s sets no overrides and no policy", path)
	}
	return opts, true, nil
}

// renderReplay prints the artifact's self-description and both outcome
// streams. Everything derives from the artifact, so output is deterministic.
func renderReplay(w io.Writer, res *mycroft.ReplayResult, whatif bool) {
	h := res.Header
	span := "incomplete (no footer — live snapshot)"
	end := time.Duration(0)
	if res.Complete {
		end = time.Duration(res.Footer.EndNs)
		span = fmt.Sprintf("complete, ends at %v", end)
	}
	fmt.Fprintf(w, "artifact: job %q seed %d world %d (%s)\n", h.Job, h.Seed, h.WorldSize, h.CreatedBy)
	fmt.Fprintf(w, "  topo %dx%d tp=%d pp=%d dp=%d, %d sampled rank(s), starts at %v, %s\n",
		h.Topo.Nodes, h.Topo.GPUsPerNode, h.Topo.TP, h.Topo.PP, h.Topo.DP,
		len(h.SampledRanks), time.Duration(h.StartNs), span)
	fmt.Fprintf(w, "  replayed %d record(s), %d evaluation pass(es)\n", res.RecordsIngested, res.Evals)
	mode := "faithful"
	if whatif {
		mode = "what-if"
	}
	fmt.Fprintf(w, "recorded: %d trigger(s), %d report(s)\n", len(res.Recorded.Triggers), len(res.Recorded.Reports))
	fmt.Fprintf(w, "replayed (%s): %d trigger(s), %d report(s)\n", mode, len(res.Replayed.Triggers), len(res.Replayed.Reports))
	for _, tr := range res.Replayed.Triggers {
		fmt.Fprintf(w, "  trigger: %s\n", tr)
	}
	for _, rep := range res.Replayed.Reports {
		fmt.Fprintf(w, "  report:  %s\n", rep)
	}
	for _, sh := range res.Shadow {
		fmt.Fprintf(w, "  shadow:  %s\n", sh)
	}
}
