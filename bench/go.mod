module ccatscale/bench

go 1.22

require ccatscale v0.0.0

replace ccatscale => ../
