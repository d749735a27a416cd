package fleet

import (
	"errors"
	"fmt"
	"sort"

	"pimflow/internal/num"
	"pimflow/internal/obs"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// DeploymentInfo is one model's fleet-level listing.
type DeploymentInfo struct {
	Name     string       `json:"name"`
	Model    string       `json:"model"`
	Want     int          `json:"replicasWanted"`
	Replicas []string     `json:"replicas"`
	Demand   serve.Demand `json:"demand"`
	Loaded   bool         `json:"loaded"`
}

// Register records a model deployment without compiling or placing it:
// the first request routed to it triggers the on-demand load
// (modelmesh-style lazy placement). replicas <= 0 means one.
func (f *Fleet) Register(spec serve.ModelSpec, replicas int) error {
	if spec.Name == "" {
		spec.Name = spec.Model
	}
	if spec.Name == "" {
		return fmt.Errorf("fleet: empty model spec")
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(f.machines) {
		return fmt.Errorf("%w: %d replicas of %q on %d machines", ErrTooManyReplicas, replicas, spec.Name, len(f.machines))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.deployments[spec.Name]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyDeployed, spec.Name)
	}
	f.deployments[spec.Name] = &deployment{spec: spec, want: replicas}
	f.cfg.Metrics.Set("fleet.models_registered", float64(len(f.deployments)))
	return nil
}

// Deploy registers a model and places its replicas eagerly.
func (f *Fleet) Deploy(spec serve.ModelSpec, replicas int) error {
	if err := f.Register(spec, replicas); err != nil {
		return err
	}
	if spec.Name == "" {
		spec.Name = spec.Model
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ensureLocked(f.deployments[spec.Name], false)
}

// Undeploy removes a model everywhere: registry entries unload, active
// placements flip inactive in the log, and the deployment disappears.
func (f *Fleet) Undeploy(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.deployments[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	for _, mi := range d.replicas {
		f.evictLocked(d, mi)
	}
	delete(f.deployments, name)
	f.cfg.Metrics.Set("fleet.models_registered", float64(len(f.deployments)))
	return nil
}

// Scale adjusts a model's desired replica count. Growth places new
// replicas immediately when the model is loaded; shrink evicts the
// highest-index replicas first.
func (f *Fleet) Scale(name string, replicas int) error {
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(f.machines) {
		return fmt.Errorf("%w: %d replicas of %q on %d machines", ErrTooManyReplicas, replicas, name, len(f.machines))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.deployments[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	d.want = replicas
	for len(d.replicas) > replicas {
		f.evictLocked(d, d.replicas[len(d.replicas)-1])
	}
	if d.lm == nil {
		return nil // placed on first use
	}
	return f.ensureLocked(d, false)
}

// Deployments lists the fleet's registered models sorted by name.
func (f *Fleet) Deployments() []DeploymentInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	infos := make([]DeploymentInfo, 0, len(f.deployments))
	for _, name := range num.SortedKeys(f.deployments) {
		d := f.deployments[name]
		info := DeploymentInfo{Name: name, Model: d.spec.Model, Want: d.want, Loaded: d.lm != nil}
		if d.lm != nil {
			info.Demand = d.lm.Demand
		}
		for _, mi := range d.replicas {
			info.Replicas = append(info.Replicas, f.machines[mi].name)
		}
		infos = append(infos, info)
	}
	return infos
}

// ensureLocked brings a deployment up to its desired replica count:
// compile once (through the compile-cache registry), then bin-pack each
// missing replica onto a machine. evict permits LRU eviction to make
// room — on-demand loads may displace idle models (modelmesh-style),
// eager deploys must not (an explicit Deploy racing other models out
// would make placement order-dependent). Callers hold f.mu.
func (f *Fleet) ensureLocked(d *deployment, evict bool) error {
	if d.lm == nil {
		lm, err := f.compiler.Load(d.spec)
		if errors.Is(err, serve.ErrAlreadyLoaded) {
			// A previous deployment of this name already compiled it; the
			// compile cache keeps it warm across undeploy/redeploy.
			lm, err = f.compiler.Get(d.spec.Name)
		}
		if err != nil {
			return err
		}
		d.lm = lm
	}
	for len(d.replicas) < d.want {
		if err := f.placeLocked(d, evict); err != nil {
			return err
		}
	}
	return nil
}

// placeLocked places one more replica of a loaded deployment: best-fit
// bin-packing over the machines' remaining static capacity, excluding
// machines already holding the model. When nothing fits, evict
// least-recently-used models (lowest machine index first); when even
// eviction cannot make room, overcommit if TimeShare allows, else fail
// with ErrNoCapacity.
func (f *Fleet) placeLocked(d *deployment, evict bool) error {
	exclude := map[int]bool{}
	for _, mi := range d.replicas {
		exclude[mi] = true
	}
	mi := f.bestFitLocked(d.lm.Demand, exclude)
	timeShare := false
	if mi < 0 && evict {
		mi = f.evictForLocked(d, exclude)
	}
	if mi < 0 {
		if !f.cfg.TimeShare {
			return fmt.Errorf("%w: %q needs %d GPU + %d PIM channels and every machine is full",
				ErrNoCapacity, d.spec.Name, d.lm.Demand.GPU, d.lm.Demand.PIM)
		}
		// Overcommit the least-loaded non-excluded machine: models
		// time-share the channel groups through the scheduler, so the
		// static sum may exceed capacity (flagged in the certificate;
		// SR-OVERLAP still proves no instant oversubscribes).
		mi = f.leastLoadedLocked(exclude)
		if mi < 0 {
			return fmt.Errorf("%w: %q has replicas on every machine", ErrNoCapacity, d.spec.Name)
		}
		timeShare = true
	}
	if err := f.machines[mi].srv.Registry().Install(d.lm); err != nil {
		return err
	}
	d.replicas = append(d.replicas, mi)
	sort.Ints(d.replicas)
	f.placements = append(f.placements, verify.FleetPlacement{
		Model:     d.spec.Name,
		Machine:   f.machines[mi].name,
		GPU:       d.lm.Demand.GPU,
		PIM:       d.lm.Demand.PIM,
		Active:    true,
		TimeShare: timeShare,
	})
	f.cfg.Metrics.Inc("fleet.placements")
	f.cfg.Metrics.Inc(obs.LabeledKey("fleet.placements", "machine", f.machines[mi].name))
	return nil
}

// remainingLocked is one machine's static capacity minus its active
// placements' demand (time-shared placements excluded, matching
// FL-CAPACITY).
func (f *Fleet) remainingLocked(mi int) serve.Demand {
	m := f.machines[mi].srv.Machine()
	rem := serve.Demand{GPU: m.GPUChannels, PIM: m.PIMChannels}
	for i := range f.placements {
		p := &f.placements[i]
		if p.Active && !p.TimeShare && p.Machine == f.machines[mi].name {
			rem.GPU -= p.GPU
			rem.PIM -= p.PIM
		}
	}
	return rem
}

// bestFitLocked returns the fitting machine with the least leftover
// capacity after placement (tightest fit packs cold models densely and
// keeps whole machines free for replicas); ties break on the lowest
// index. -1 when nothing fits.
func (f *Fleet) bestFitLocked(d serve.Demand, exclude map[int]bool) int {
	best, bestLeft := -1, 0
	for mi := range f.machines {
		if exclude[mi] {
			continue
		}
		rem := f.remainingLocked(mi)
		if d.GPU > rem.GPU || d.PIM > rem.PIM {
			continue
		}
		left := (rem.GPU - d.GPU) + (rem.PIM - d.PIM)
		if best < 0 || left < bestLeft {
			best, bestLeft = mi, left
		}
	}
	return best
}

// leastLoadedLocked returns the non-excluded machine with the most
// remaining static capacity (ties on lowest index), ignoring fit.
func (f *Fleet) leastLoadedLocked(exclude map[int]bool) int {
	best, bestRem := -1, 0
	for mi := range f.machines {
		if exclude[mi] {
			continue
		}
		rem := f.remainingLocked(mi)
		if r := rem.GPU + rem.PIM; best < 0 || r > bestRem {
			best, bestRem = mi, r
		}
	}
	return best
}

// evictForLocked tries to make room for d on some machine by evicting
// least-recently-used sibling models, modelmesh-style: machines are
// tried in index order; on each, idle siblings are evicted oldest
// lastUsed first (ties on name) until the demand fits. Returns the
// machine index, or -1 when no machine can be cleared.
func (f *Fleet) evictForLocked(d *deployment, exclude map[int]bool) int {
	for mi := range f.machines {
		if exclude[mi] {
			continue
		}
		m := f.machines[mi].srv.Machine()
		if d.lm.Demand.GPU > m.GPUChannels || d.lm.Demand.PIM > m.PIMChannels {
			continue // cannot fit even empty
		}
		// Victims: other deployments holding this machine, oldest first.
		type victim struct {
			dep *deployment
		}
		var victims []victim
		for _, name := range num.SortedKeys(f.deployments) {
			od := f.deployments[name]
			if od == d {
				continue
			}
			for _, omi := range od.replicas {
				if omi == mi {
					victims = append(victims, victim{dep: od})
					break
				}
			}
		}
		sort.SliceStable(victims, func(i, j int) bool {
			return victims[i].dep.lastUsed < victims[j].dep.lastUsed
		})
		rem := f.remainingLocked(mi)
		need := 0
		for _, v := range victims {
			if d.lm.Demand.GPU <= rem.GPU && d.lm.Demand.PIM <= rem.PIM {
				break
			}
			rem.GPU += v.dep.lm.Demand.GPU
			rem.PIM += v.dep.lm.Demand.PIM
			need++
		}
		if d.lm.Demand.GPU > rem.GPU || d.lm.Demand.PIM > rem.PIM {
			continue // even a cleared machine cannot hold it alongside itself
		}
		for _, v := range victims[:need] {
			f.evictLocked(v.dep, mi)
			f.cfg.Metrics.Inc("fleet.evictions")
		}
		return mi
	}
	return -1
}

// evictLocked removes one replica of a deployment from a machine:
// unload from the machine's registry (in-flight work finishes; the
// compiled model stays warm in the compile cache) and flip the
// placement log entry inactive.
func (f *Fleet) evictLocked(d *deployment, mi int) {
	_ = f.machines[mi].srv.Registry().Unload(d.spec.Name)
	for i := len(d.replicas) - 1; i >= 0; i-- {
		if d.replicas[i] == mi {
			d.replicas = append(d.replicas[:i], d.replicas[i+1:]...)
			break
		}
	}
	name := f.machines[mi].name
	for i := range f.placements {
		p := &f.placements[i]
		if p.Active && p.Model == d.spec.Name && p.Machine == name {
			p.Active = false
			break
		}
	}
}
