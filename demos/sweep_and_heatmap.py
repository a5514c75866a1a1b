"""
A small parameter sweep rendered as a heatmap
=============================================

The full experiment grid explores curious and enthusiastic shares in
steps of 0.05 with 10 replicates; here a coarse 5x5 slice with 2
replicates shows the workflow end to end: run the grid, aggregate per
cell, write the records CSV and render one heatmap panel.
"""

from pathlib import Path

from womlab import (SweepGrid, WsParams, aggregate, render_heatmap, run_sweep,
                    write_records_csv)

axis = tuple(i / 4 for i in range(5))
grid = SweepGrid(
    network_model="ws",
    params=WsParams(n=300, nei=5, p_rewire=0.055),
    curious_values=axis,
    enthusiastic_values=axis,
    supporter_values=(0.0,),
    k_values=(0.01,),
    replications=2,
    base_seed=1,
)
print(f"running {grid.run_count()} simulations ...")
records = run_sweep(grid, worker_count=2)
write_records_csv(records, "demo_records.csv")

# One k and one supporters value: the whole grid is one panel.
[(_, cells)] = aggregate(records)
csv_text, ppm_text = render_heatmap(cells)
Path("demo_heatmap.csv").write_text(csv_text)
Path("demo_heatmap.ppm").write_text(ppm_text)

print("\nmean final share holding awareness and expertise")
print("(rows: enthusiastic, columns: curious)\n")
print(csv_text)
print("wrote demo_records.csv, demo_heatmap.csv, demo_heatmap.ppm")
