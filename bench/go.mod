module spreadnshare/bench

go 1.22

require spreadnshare v0.0.0

replace spreadnshare => ../
