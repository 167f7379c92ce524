package graph

// SortByDegreeOn is SortByDegree on t scatter workers, for the external
// tests that hold it to the oracle at forced worker counts.
var SortByDegreeOn = sortByDegree
