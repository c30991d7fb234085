// Package objectstore implements the S3 substitute: an in-memory,
// virtual-time-aware object store with GET/PUT/LIST/DELETE semantics,
// bandwidth-charged transfers, request metering and storage-duration
// accounting.
//
// Transfers charge virtual time to the calling process at the configured
// per-connection bandwidth (the B constant in the paper's models), or —
// when a shared-bandwidth pool is attached — under processor sharing
// across all concurrent transfers. Every request is counted per bucket so
// the exact bill (Eq. 10-11) can be computed after a run.
//
// Buckets may carry a storage Class overriding bandwidth, latency and
// pricing: the fast ephemeral tier (Redis/ElastiCache, as in Pocket and
// Locus) for intermediate data lives alongside the default S3-like class
// in one store.
//
// Objects come in two flavors: concrete (real bytes, used by the examples
// and correctness tests) and profiled (size-only metadata, used to run
// 100 GB workloads without materializing 100 GB).
package objectstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"astra/internal/flight"
	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/telemetry"
)

// Errors returned by store operations.
var (
	ErrNoSuchBucket = errors.New("objectstore: no such bucket")
	ErrNoSuchKey    = errors.New("objectstore: no such key")
	ErrTooLarge     = errors.New("objectstore: object exceeds size limit")
)

// Op identifies a request class for metering and fault injection.
type Op uint8

// Request classes. List and Head bill as GET-class requests, matching S3;
// Copy bills as a PUT-class request (S3 CopyObject).
const (
	OpGet Op = iota
	OpPut
	OpList
	OpHead
	OpDelete
	OpCopy
)

// String is the class's S3 name ("GET", "PUT", ...), the spelling chaos
// rules match and chaos events carry.
func (op Op) String() string { return books[op].name }

// Object is a stored value. Profiled objects carry only a size; their Data
// is nil and consumers must treat them as opaque payloads of Size bytes.
type Object struct {
	Key      string
	Data     []byte
	Size     int64
	Profiled bool
	Created  simtime.Time
}

// Class is a storage class: a bucket-level override of transfer and
// pricing characteristics. It models fast ephemeral stores for
// intermediate data — the Redis/ElastiCache tier of Pocket and Locus that
// the paper's discussion section contrasts with S3 — alongside the
// default object-store class.
type Class struct {
	// Name labels the class in bills.
	Name string
	// Bandwidth is the per-connection transfer rate (bytes/second).
	Bandwidth float64
	// RequestLatency is the per-request overhead (sub-millisecond for an
	// in-memory tier).
	RequestLatency time.Duration
	// PerPut and PerGet price requests (often zero for provisioned
	// tiers).
	PerPut, PerGet pricing.USD
	// StoragePerGBHour prices occupancy for provisioned tiers; if zero
	// the store's default per-GB-month rate applies.
	StoragePerGBHour pricing.USD
}

// CacheClass returns an ElastiCache-like in-memory tier: an order of
// magnitude more per-connection bandwidth, negligible request latency, no
// request fees, but provisioned pricing around $0.05 per GB-hour.
func CacheClass() Class {
	return Class{
		Name:             "cache",
		Bandwidth:        800 << 20,
		RequestLatency:   500 * time.Microsecond,
		StoragePerGBHour: 0.05,
	}
}

// storageCost prices byteSeconds of occupancy under the class.
func (c Class) storageCost(byteSeconds float64, def pricing.ObjectStore) pricing.USD {
	if c.StoragePerGBHour > 0 {
		gbHours := byteSeconds / (1 << 30) / 3600
		return c.StoragePerGBHour * pricing.USD(gbHours)
	}
	return def.StorageCost(byteSeconds)
}

type bucket struct {
	name    string
	objects map[string]*Object
	class   *Class // nil: the store's default class

	// Per-bucket accounting, so mixed-class jobs bill correctly.
	metrics     Metrics
	curBytes    int64
	lastUpdate  simtime.Time
	byteSeconds float64
}

// Metrics is a snapshot of request counters and transferred bytes.
type Metrics struct {
	Gets, Puts, Lists, Heads, Deletes, Copies int64
	BytesIn, BytesOut                         int64
}

// GetClass reports all GET-billed requests (GET + LIST + HEAD).
func (m Metrics) GetClass() int64 { return m.Gets + m.Lists + m.Heads }

// PutClass reports all PUT-billed requests (PUT + COPY; DELETE is free on
// S3).
func (m Metrics) PutClass() int64 { return m.Puts + m.Copies }

// Sub returns the counter deltas m - o, for scoping a phase's requests.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		Gets: m.Gets - o.Gets, Puts: m.Puts - o.Puts,
		Lists: m.Lists - o.Lists, Heads: m.Heads - o.Heads,
		Deletes: m.Deletes - o.Deletes, Copies: m.Copies - o.Copies,
		BytesIn: m.BytesIn - o.BytesIn, BytesOut: m.BytesOut - o.BytesOut,
	}
}

// Injector decides request-level fault injection: a non-nil OpFault return
// aborts the operation with that error before any state change, metering
// or time charge. Implementations must be deterministic functions of the
// request identity (see internal/chaos).
type Injector interface {
	OpFault(op Op, bucket, key string) error
}

// Config parameterizes a Store.
type Config struct {
	// Bandwidth is the per-connection transfer rate in bytes per second
	// (the paper's B). Required unless SharedBandwidth is set.
	Bandwidth float64
	// SharedBandwidth, if positive, attaches a processor-sharing pool of
	// that many bytes/second shared across ALL concurrent default-class
	// transfers, replacing the fixed per-connection model.
	SharedBandwidth float64
	// RequestLatency is the fixed per-request overhead (first-byte
	// latency). Zero is allowed and keeps the store exactly on the
	// paper's size/B model.
	RequestLatency time.Duration
	// Pricing supplies the request/storage prices for Bill.
	Pricing pricing.ObjectStore
}

// Store is the simulated object store. All time-charging methods take the
// calling process; setup helpers (Seed*) are free and instantaneous.
type Store struct {
	sched  *simtime.Scheduler
	cfg    Config
	shared *simtime.PSResource

	buckets   map[string]*bucket
	metrics   Metrics
	inj       Injector
	injFaults int64
	tel       *telemetry.Registry
	rec       *flight.Recorder
}

// New creates a store bound to the scheduler's virtual clock.
func New(sched *simtime.Scheduler, cfg Config) *Store {
	if cfg.Bandwidth <= 0 && cfg.SharedBandwidth <= 0 {
		panic("objectstore: a positive Bandwidth or SharedBandwidth is required")
	}
	s := &Store{sched: sched, cfg: cfg, buckets: make(map[string]*bucket)}
	if cfg.SharedBandwidth > 0 {
		s.shared = sched.NewPSResource(cfg.SharedBandwidth)
	}
	return s
}

// SetInjector attaches a fault injector consulted before every request
// (nil detaches). An injector that injects nothing leaves the run
// bit-identical to one with no injector attached.
func (s *Store) SetInjector(inj Injector) { s.inj = inj }

// InjectedFaults reports how many requests an injector has aborted.
func (s *Store) InjectedFaults() int64 { return s.injFaults }

// SetTelemetry attaches a registry that mirrors the store's request and
// byte counters (telemetry.MStore*). Observe-only; nil detaches.
func (s *Store) SetTelemetry(reg *telemetry.Registry) { s.tel = reg }

// SetFlightRecorder attaches a flight recorder that receives every store
// request as a virtual-time interval event, attributed to the invocation
// whose handler issued it. Observe-only; nil detaches.
func (s *Store) SetFlightRecorder(rec *flight.Recorder) { s.rec = rec }

// Metrics returns the store-wide counter snapshot.
func (s *Store) Metrics() Metrics { return s.metrics }

// BucketMetrics returns one bucket's counters (zero value if absent).
func (s *Store) BucketMetrics(name string) Metrics {
	if b, ok := s.buckets[name]; ok {
		return b.metrics
	}
	return Metrics{}
}

// CreateBucket makes an empty bucket; it is idempotent and free.
func (s *Store) CreateBucket(name string) {
	if _, ok := s.buckets[name]; !ok {
		s.buckets[name] = &bucket{name: name, objects: make(map[string]*Object)}
	}
}

// SetBucketClass assigns a storage class to a bucket (creating it if
// needed). Assign before the bucket sees traffic: the class governs both
// transfer behavior and billing.
func (s *Store) SetBucketClass(name string, c Class) {
	s.CreateBucket(name)
	cc := c
	s.buckets[name].class = &cc
}

func (s *Store) bucket(name string) (*bucket, error) {
	b, ok := s.buckets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchBucket, name)
	}
	return b, nil
}

// accrue folds the storage held since the last mutation into the bucket's
// byte-seconds accumulator. Must be called before curBytes changes.
func (b *bucket) accrue(now simtime.Time) {
	if now > b.lastUpdate {
		b.byteSeconds += float64(b.curBytes) * (now - b.lastUpdate).Seconds()
	}
	b.lastUpdate = now
}

// latencyFor resolves the per-request latency for a bucket.
func (s *Store) latencyFor(b *bucket) time.Duration {
	if b != nil && b.class != nil {
		return b.class.RequestLatency
	}
	return s.cfg.RequestLatency
}

// transfer charges p for moving n bytes between a function and a bucket.
func (s *Store) transfer(p *simtime.Proc, b *bucket, n int64) {
	if lat := s.latencyFor(b); lat > 0 {
		p.Sleep(lat)
	}
	if n <= 0 {
		return
	}
	if b != nil && b.class != nil && b.class.Bandwidth > 0 {
		sec := float64(n) / b.class.Bandwidth
		p.Sleep(time.Duration(sec * float64(time.Second)))
		return
	}
	if s.shared != nil {
		s.shared.Use(p, float64(n))
		return
	}
	sec := float64(n) / s.cfg.Bandwidth
	p.Sleep(time.Duration(sec * float64(time.Second)))
}

// book is one request class's row in the store's books: its name, the
// Metrics counter one request moves, the telemetry counter mirroring it,
// the flight kind it emits, and which way its bytes move through the
// caller (none for the metadata ops and the server-side copy).
type book struct {
	name    string
	unit    Metrics
	counter string
	kind    flight.Kind
	dir     int8 // +1: bytes up (BytesIn), -1: bytes down (BytesOut), 0: none
}

// books is the one table every request is metered through, indexed by Op.
var books = [...]book{
	OpGet:    {"GET", Metrics{Gets: 1}, telemetry.MStoreGets, flight.KindStoreGet, -1},
	OpPut:    {"PUT", Metrics{Puts: 1}, telemetry.MStorePuts, flight.KindStorePut, +1},
	OpList:   {"LIST", Metrics{Lists: 1}, telemetry.MStoreLists, flight.KindStoreList, 0},
	OpHead:   {"HEAD", Metrics{Heads: 1}, telemetry.MStoreHeads, flight.KindStoreHead, 0},
	OpDelete: {"DELETE", Metrics{Deletes: 1}, telemetry.MStoreDeletes, flight.KindStoreDelete, 0},
	OpCopy:   {"COPY", Metrics{Copies: 1}, telemetry.MStoreCopies, flight.KindStoreCopy, 0},
}

// add folds the deltas d into m.
func (m *Metrics) add(d Metrics) {
	m.Gets += d.Gets
	m.Puts += d.Puts
	m.Lists += d.Lists
	m.Heads += d.Heads
	m.Deletes += d.Deletes
	m.Copies += d.Copies
	m.BytesIn += d.BytesIn
	m.BytesOut += d.BytesOut
}

// open admits one request of class op: the injector first, then the
// bucket. An injected fault is observe-recorded (chaos event and counter)
// but the faulted request itself touches no state, meter or clock.
func (s *Store) open(p *simtime.Proc, op Op, bucketName, key string) (*bucket, error) {
	if s.inj != nil {
		if err := s.inj.OpFault(op, bucketName, key); err != nil {
			s.injFaults++
			s.tel.Counter(telemetry.MChaosFaults).Inc()
			s.tel.Counter(telemetry.MChaosStoreFaults).Inc()
			if rec := s.rec; rec != nil {
				rec.Emit(flight.Event{Kind: flight.KindChaosFault, Time: s.sched.Now(),
					Inv: rec.InvocationOf(p), Bucket: bucketName, Key: key,
					Name: op.String(), Err: err.Error()})
			}
			return nil, err
		}
	}
	return s.bucket(bucketName)
}

// meter charges and books one admitted request of class op on b: the
// clock (n bytes through the caller if the class moves bytes, else the
// request latency alone), the store-wide and per-bucket Metrics, the
// telemetry counters and one flight event carrying key and n.
func (s *Store) meter(p *simtime.Proc, op Op, b *bucket, key string, n int64) {
	bk := &books[op]
	d := bk.unit
	switch bk.dir {
	case +1:
		d.BytesIn = n
	case -1:
		d.BytesOut = n
	}
	t0 := s.sched.Now()
	s.transfer(p, b, d.BytesIn+d.BytesOut)
	s.metrics.add(d)
	b.metrics.add(d)
	if tel := s.tel; tel != nil {
		tel.Counter(bk.counter).Inc()
		if d.BytesIn > 0 {
			tel.Counter(telemetry.MStoreBytesIn).Add(d.BytesIn)
		}
		if d.BytesOut > 0 {
			tel.Counter(telemetry.MStoreBytesOut).Add(d.BytesOut)
		}
	}
	if rec := s.rec; rec != nil {
		rec.Op(p, bk.kind, b.name, key, n, t0, s.sched.Now())
	}
}

// missing is the error for an absent key.
func missing(bucketName, key string) error {
	return fmt.Errorf("%w: %s/%s", ErrNoSuchKey, bucketName, key)
}

// Put stores concrete bytes, charging the caller for the upload.
func (s *Store) Put(p *simtime.Proc, bucketName, key string, data []byte) error {
	return s.put(p, bucketName, key, &Object{Key: key, Data: data, Size: int64(len(data))})
}

// PutProfiled stores a size-only object, charging the caller as if size
// real bytes were uploaded.
func (s *Store) PutProfiled(p *simtime.Proc, bucketName, key string, size int64) error {
	if size < 0 {
		size = 0
	}
	return s.put(p, bucketName, key, &Object{Key: key, Size: size, Profiled: true})
}

func (s *Store) put(p *simtime.Proc, bucketName, key string, obj *Object) error {
	b, err := s.open(p, OpPut, bucketName, key)
	if err != nil {
		return err
	}
	if obj.Size > s.cfg.Pricing.MaxObjectBytes && s.cfg.Pricing.MaxObjectBytes > 0 {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, obj.Size)
	}
	s.meter(p, OpPut, b, key, obj.Size)
	b.place(key, obj, s.sched.Now())
	return nil
}

// Get retrieves an object, charging the caller for the download.
func (s *Store) Get(p *simtime.Proc, bucketName, key string) (*Object, error) {
	b, err := s.open(p, OpGet, bucketName, key)
	if err != nil {
		return nil, err
	}
	obj, ok := b.objects[key]
	if !ok {
		return nil, missing(bucketName, key)
	}
	s.meter(p, OpGet, b, key, obj.Size)
	return obj, nil
}

// Copy duplicates src under dst within a bucket, server-side (S3
// CopyObject): a PUT-class request charging only the request latency — no
// bytes move through the caller. Speculative execution's commit step uses
// it to publish a winning attempt's output under the task's final key.
func (s *Store) Copy(p *simtime.Proc, bucketName, src, dst string) error {
	b, err := s.open(p, OpCopy, bucketName, dst)
	if err != nil {
		return err
	}
	obj, ok := b.objects[src]
	if !ok {
		return missing(bucketName, src)
	}
	s.meter(p, OpCopy, b, dst, obj.Size)
	cp := *obj
	cp.Key = dst
	b.place(dst, &cp, s.sched.Now())
	return nil
}

// Head returns object metadata without transferring the body. Bills as a
// GET-class request.
func (s *Store) Head(p *simtime.Proc, bucketName, key string) (*Object, error) {
	b, err := s.open(p, OpHead, bucketName, key)
	if err != nil {
		return nil, err
	}
	obj, ok := b.objects[key]
	if !ok {
		return nil, missing(bucketName, key)
	}
	s.meter(p, OpHead, b, key, 0)
	meta := *obj
	meta.Data = nil
	return &meta, nil
}

// List returns the keys in a bucket with the given prefix, sorted. Bills
// as a GET-class request.
func (s *Store) List(p *simtime.Proc, bucketName, prefix string) ([]string, error) {
	b, err := s.open(p, OpList, bucketName, prefix)
	if err != nil {
		return nil, err
	}
	s.meter(p, OpList, b, prefix, 0)
	var keys []string
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete removes an object. Deleting a missing key is a no-op, like S3.
func (s *Store) Delete(p *simtime.Proc, bucketName, key string) error {
	b, err := s.open(p, OpDelete, bucketName, key)
	if err != nil {
		return err
	}
	s.meter(p, OpDelete, b, key, 0)
	if old, ok := b.objects[key]; ok {
		b.accrue(s.sched.Now())
		b.curBytes -= old.Size
		delete(b.objects, key)
	}
	return nil
}

// place puts obj under key at now, replacing any object there and
// keeping the bucket's occupancy books.
func (b *bucket) place(key string, obj *Object, now simtime.Time) {
	b.accrue(now)
	if old, ok := b.objects[key]; ok {
		b.curBytes -= old.Size
	}
	obj.Created = now
	b.objects[key] = obj
	b.curBytes += obj.Size
}

// seed stores an object with no time charge and no request billing; it
// models data already resident before the job starts.
func (s *Store) seed(bucketName string, obj *Object) {
	s.CreateBucket(bucketName)
	s.buckets[bucketName].place(obj.Key, obj, s.sched.Now())
}

// Seed stores concrete bytes with no time charge.
func (s *Store) Seed(bucketName, key string, data []byte) {
	s.seed(bucketName, &Object{Key: key, Data: data, Size: int64(len(data))})
}

// SeedProfiled stores a size-only object with no time charge.
func (s *Store) SeedProfiled(bucketName, key string, size int64) {
	s.seed(bucketName, &Object{Key: key, Size: size, Profiled: true})
}

// Bill is the store's contribution to the job bill: request charges plus
// storage-duration charges, summed across buckets under each bucket's
// class.
type Bill struct {
	Requests pricing.USD
	Storage  pricing.USD
}

// Total returns the sum of the bill's components.
func (b Bill) Total() pricing.USD { return b.Requests + b.Storage }

// Bill prices the requests and storage occupancy recorded so far.
func (s *Store) Bill() Bill {
	now := s.sched.Now()
	var out Bill
	for _, b := range s.buckets {
		b.accrue(now)
		if b.class != nil {
			out.Requests += b.class.PerGet*pricing.USD(b.metrics.GetClass()) +
				b.class.PerPut*pricing.USD(b.metrics.PutClass())
			out.Storage += b.class.storageCost(b.byteSeconds, s.cfg.Pricing)
			continue
		}
		out.Requests += s.cfg.Pricing.RequestCost(b.metrics.GetClass(), b.metrics.PutClass())
		out.Storage += s.cfg.Pricing.StorageCost(b.byteSeconds)
	}
	return out
}
