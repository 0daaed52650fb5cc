module vtdynamics/bench

go 1.22

require vtdynamics v0.0.0

replace vtdynamics => ../
