let total = Fx_export_unused.seamed_but_used + Fx_export_unused.used_elsewhere
