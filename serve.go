package ios

import (
	"ios/internal/serve"
)

// Serving layer: the schedule cache and HTTP server of internal/serve,
// re-exported so applications can embed IOS serving without touching
// internal packages. cmd/iosserve is the stand-alone daemon built on the
// same types.

type (
	// Server serves IOS schedules over HTTP (POST /optimize,
	// POST /measure, GET /models, GET /stats). It implements
	// http.Handler.
	Server = serve.Server
	// ServerConfig configures NewServer; the zero value serves the V100
	// with paper-default search options.
	ServerConfig = serve.Config
	// ScheduleCache is a concurrent schedule cache with request
	// coalescing: concurrent requests for the same key trigger exactly
	// one optimization run.
	ScheduleCache = serve.ScheduleCache
	// CacheKey identifies a cached schedule: model, batch, device, and
	// search-option fingerprint.
	CacheKey = serve.Key
	// CacheEntry is one cached optimization result.
	CacheEntry = serve.Entry
	// CacheStats counts schedule-cache traffic.
	CacheStats = serve.CacheStats
	// OptimizeRequest is the POST /optimize body.
	OptimizeRequest = serve.OptimizeRequest
	// OptimizeResponse is the POST /optimize response.
	OptimizeResponse = serve.OptimizeResponse
	// MeasureRequest is the POST /measure body.
	MeasureRequest = serve.MeasureRequest
	// MeasureResponse is the POST /measure response.
	MeasureResponse = serve.MeasureResponse
)

// DefaultCacheSize is the schedule-cache capacity a zero ServerConfig
// gets.
const DefaultCacheSize = serve.DefaultCacheSize

// NewServer returns a schedule-serving HTTP handler.
func NewServer(cfg ServerConfig) *Server { return serve.NewServer(cfg) }

// NewScheduleCache returns a schedule cache holding up to capacity
// completed entries (capacity <= 0 means unbounded).
func NewScheduleCache(capacity int) *ScheduleCache { return serve.NewScheduleCache(capacity) }
