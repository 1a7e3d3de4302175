module partialrollback/bench

go 1.22

require partialrollback v0.0.0

replace partialrollback => ../
