let via_alias = 1

module Whole = struct
  let a = 2
  let b = 3
end
