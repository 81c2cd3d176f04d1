// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` never builds or runs it; it reaches
// the program through the replace below.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
