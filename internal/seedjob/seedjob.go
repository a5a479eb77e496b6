// Package seedjob builds the canonical seeded single-job Service that
// mycroft-trace (in-process mode) and mycroft-serve (single-job mode) both
// host. Keeping the wiring in one place is what makes the two transports
// byte-identical for the same flags: the CLIs cannot drift apart, and the
// equivalence test in cmd/mycroft-trace exercises exactly the constructor
// the daemon runs. It is also where the two CLIs' -fault and -rank flags are
// checked: a kind outside faults.All() or a rank outside the job is an
// error before anything runs, never a panic mid-drive.
package seedjob

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mycroft"
	"mycroft/internal/faults"
)

// FaultKinds lists the fault names Build and Assemble accept, for help text.
func FaultKinds() string {
	names := []string{"none"}
	for _, k := range faults.All() {
		names = append(names, string(k))
	}
	return strings.Join(names, "|")
}

// Build wires one job onto a fresh Service: self-healing policy attached
// first when remedy is set (with the backend re-arm tightened to 10s so a
// failed mitigation is re-detected inside the verify window, matching the
// self-healing builtins), then Start, then the fault injection. faultName
// "none" skips injection.
func Build(id mycroft.JobID, seed int64, faultName string, rank int, at time.Duration, remedy bool) (*mycroft.Service, error) {
	svc, start, err := Assemble(id, seed, faultName, rank, at, remedy)
	if err != nil {
		return nil, err
	}
	start()
	return svc, nil
}

// Assemble is Build stopped just short of Start: the Service is fully wired
// (job added, policy attached) but not yet running, and the returned start
// closure performs the Start + fault injection. The gap is where a caller
// attaches incident recorders — a recorder armed before start() captures the
// run byte-for-byte from virtual time zero. An unknown faultName or a rank
// outside the job's world is an error.
func Assemble(id mycroft.JobID, seed int64, faultName string, rank int, at time.Duration, remedy bool) (*mycroft.Service, func(), error) {
	if faultName != "none" && !slices.Contains(faults.All(), faults.Kind(faultName)) {
		return nil, nil, fmt.Errorf("unknown fault kind %q (want %s)", faultName, FaultKinds())
	}
	opts := mycroft.JobOptions{}
	if remedy {
		opts.Backend.RearmDelay = 10 * time.Second
	}
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: seed})
	job, err := svc.AddJob(id, opts)
	if err != nil {
		return nil, nil, err
	}
	if faultName != "none" && (rank < 0 || rank >= job.WorldSize()) {
		return nil, nil, fmt.Errorf("fault rank %d outside the job's %d ranks", rank, job.WorldSize())
	}
	if remedy {
		p := mycroft.SelfHealPolicy()
		p.Rules = append(p.Rules, mycroft.RemedyRule{Name: "page", Action: mycroft.RemedyEscalate})
		if err := svc.AttachPolicy(job.ID, p); err != nil {
			return nil, nil, err
		}
	}
	start := func() {
		svc.Start()
		if faultName != "none" {
			job.Inject(mycroft.Fault{Kind: faults.Kind(faultName), Rank: mycroft.Rank(rank), At: at})
		}
	}
	return svc, start, nil
}
