package exact

// TinySpec exposes the brute-force-sized instance generator to the
// external test package.
var TinySpec = tinySpec
