package reremi

// RedescData exports the planted test dataset to the external tests.
var RedescData = redescData
