module chameleon/bench

go 1.22

require chameleon v0.0.0

replace chameleon => ../
