let nothing_uses x = x + 1
let used_inside x = x * 2
let seamed_but_used = used_inside 21
let seam_without_reason = 0
let used_elsewhere = 1
