(* Re-export the space instance so engine callers (the service's
   runner, X4, tests) can reach it as [Continuum.Space]. *)
module Space = Continuum_space
