package ios

import (
	"ios/internal/serve"
)

// Serving layer: the HTTP server of internal/serve, re-exported so
// applications can embed IOS serving without touching internal packages.
// cmd/iosserve is the stand-alone daemon built on the same types.

type (
	// Server serves IOS schedules over HTTP (POST /optimize,
	// POST /measure, GET /models, GET /stats). It implements
	// http.Handler.
	Server = serve.Server
	// ServerConfig configures NewServer; the zero value serves the V100
	// with paper-default search options.
	ServerConfig = serve.Config
	// OptimizeRequest is the POST /optimize body.
	OptimizeRequest = serve.OptimizeRequest
	// OptimizeResponse is the POST /optimize response.
	OptimizeResponse = serve.OptimizeResponse
	// MeasureRequest is the POST /measure body.
	MeasureRequest = serve.MeasureRequest
	// MeasureResponse is the POST /measure response.
	MeasureResponse = serve.MeasureResponse
)

// NewServer returns a schedule-serving HTTP handler.
func NewServer(cfg ServerConfig) *Server { return serve.NewServer(cfg) }
