// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive points at the repository it measures,
// and the skandium/ path prefix is what lets it import skandium/internal/...
module skandium/bench

go 1.22

require skandium v0.0.0

replace skandium => ../
